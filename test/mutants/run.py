#!/usr/bin/env python3
"""Run the mutant catalogue: every planted bug must be caught by a test.

    python3 test/mutants/run.py [--only NAME] [CATALOGUE.mut ...]

Run it from the root of a source checkout.  With no catalogue given it
reads every test/mutants/*.mut.  Each entry names a file, an exact piece
of its source text, a replacement, and the test executables that must
fail once the replacement is made; or it is marked `equivalent`, with a
one-line proof that no test can tell it from the original.

The checkout is copied once to a scratch directory (no _build), the
listed executables are built and run there unmutated (each must pass),
and then, one entry at a time: the replacement is made, the listed
executables are rebuilt and run, and the file is put back.  A
non-equivalent entry passes when every listed executable exits non-zero
("killed"); it fails when one exits 0 ("survived") and is an error when
it does not build or its source text is absent or not unique.
Equivalent entries are only checked for their source text.  Exits 0
when every entry passes, 1 otherwise.

Catalogue format, one entry after another, `#` lines between entries
being comments:

    mutant NAME
    file PATH
    kills EXE [EXE ...]          (or: equivalent PROOF)
    @@ from
    exact source lines
    @@ to
    replacement lines
    @@ end
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys
import tempfile
import time

RUN_TIMEOUT_S = 600
BUILD_TIMEOUT_S = 900


class CatalogueError(Exception):
    pass


def parse(path):
    entries = []
    with open(path) as f:
        lines = f.read().split("\n")
    i = 0
    cur = None

    def where():
        return "%s:%d" % (path, i + 1)

    while i < len(lines):
        line = lines[i]
        if cur is None:
            if line.strip() == "" or line.startswith("#"):
                i += 1
                continue
            key, _, value = line.partition(" ")
            if key != "mutant" or not value.strip():
                raise CatalogueError("%s: expected `mutant NAME`, got %r" % (where(), line))
            cur = {"name": value.strip(), "where": where()}
            i += 1
            continue
        if line == "@@ from":
            blocks = {}
            for tag, stop in (("from", "@@ to"), ("to", "@@ end")):
                i += 1
                start = i
                while i < len(lines) and lines[i] != stop:
                    i += 1
                if i == len(lines):
                    raise CatalogueError("%s: mutant %s has no `%s`" % (path, cur["name"], stop))
                blocks[tag] = "\n".join(lines[start:i])
            cur["from"], cur["to"] = blocks["from"], blocks["to"]
            if "file" not in cur:
                raise CatalogueError("%s: mutant %s has no `file`" % (cur["where"], cur["name"]))
            if ("kills" in cur) == ("equivalent" in cur):
                raise CatalogueError(
                    "%s: mutant %s needs exactly one of `kills` and `equivalent`"
                    % (cur["where"], cur["name"]))
            if cur["from"] == "":
                raise CatalogueError("%s: mutant %s has an empty source text" % (cur["where"], cur["name"]))
            entries.append(cur)
            cur = None
            i += 1
            continue
        key, _, value = line.partition(" ")
        value = value.strip()
        if key == "file" and value:
            cur["file"] = value
        elif key == "kills" and value:
            cur["kills"] = value.split()
        elif key == "equivalent" and value:
            cur["equivalent"] = value
        else:
            raise CatalogueError("%s: unexpected line %r in mutant %s" % (where(), line, cur["name"]))
        i += 1
    if cur is not None:
        raise CatalogueError("%s: mutant %s has no `@@ from` block" % (path, cur["name"]))
    return entries


def check_text(root, e):
    """The source text must appear exactly once in the file."""
    path = os.path.join(root, e["file"])
    if not os.path.isfile(path):
        return "no file %s" % e["file"]
    with open(path) as f:
        n = f.read().count(e["from"])
    if n != 1:
        return "source text %s in %s" % ("not found" if n == 0 else "found %d times" % n, e["file"])
    return None


def dune_build(root, exes):
    return subprocess.run(
        ["dune", "build", "--root", root] + exes,
        cwd=root, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)


def run_exe(root, exe):
    """Exit status of one test executable, None on a timeout."""
    try:
        r = subprocess.run(
            [os.path.join(root, "_build", "default", exe)],
            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=RUN_TIMEOUT_S)
        return r.returncode
    except subprocess.TimeoutExpired:
        return None


def copy_checkout(src, dst):
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("_build", ".git"), dirs_exist_ok=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("catalogues", nargs="*", help="catalogue files (default test/mutants/*.mut)")
    ap.add_argument("--only", action="append", default=[], help="run only the named mutant (repeatable)")
    args = ap.parse_args()
    started = time.time()
    root = os.getcwd()
    paths = args.catalogues or sorted(glob.glob(os.path.join("test", "mutants", "*.mut")))
    if not paths:
        print("mutants: no catalogue", file=sys.stderr)
        return 1
    try:
        entries = [e for p in paths for e in parse(p)]
    except (OSError, CatalogueError) as err:
        print("mutants: %s" % err, file=sys.stderr)
        return 1
    if args.only:
        entries = [e for e in entries if e["name"] in args.only]
        missing = set(args.only) - {e["name"] for e in entries}
        if missing:
            print("mutants: no mutant named %s" % ", ".join(sorted(missing)), file=sys.stderr)
            return 1
    names = [e["name"] for e in entries]
    dups = sorted({n for n in names if names.count(n) > 1})
    if dups:
        print("mutants: duplicate names %s" % ", ".join(dups), file=sys.stderr)
        return 1

    # Every source text is checked against the checkout before anything
    # is built, so a stale entry fails at once.
    errors = []
    for e in entries:
        msg = check_text(root, e)
        if msg:
            errors.append("%s (%s): %s" % (e["name"], e["where"], msg))
    if errors:
        for msg in errors:
            print("mutants: ERROR %s" % msg, file=sys.stderr)
        return 1

    live = [e for e in entries if "kills" in e]
    exes = sorted({x for e in live for x in e["kills"]})
    scratch = tempfile.mkdtemp(prefix="lb_mutants.")
    failures = 0
    try:
        copy_checkout(root, scratch)
        if exes:
            b = dune_build(scratch, exes)
            if b.returncode != 0:
                print(b.stderr, file=sys.stderr)
                print("mutants: ERROR the unmutated checkout does not build %s" % " ".join(exes),
                      file=sys.stderr)
                return 1
            for x in exes:
                if run_exe(scratch, x) != 0:
                    print("mutants: ERROR %s fails on the unmutated checkout" % x, file=sys.stderr)
                    return 1
        for e in entries:
            t0 = time.time()
            if "equivalent" in e:
                print("equivalent %-36s %s" % (e["name"], e["equivalent"]))
                continue
            path = os.path.join(scratch, e["file"])
            with open(path) as f:
                original = f.read()
            with open(path, "w") as f:
                f.write(original.replace(e["from"], e["to"], 1))
            try:
                b = dune_build(scratch, e["kills"])
                if b.returncode != 0:
                    print(b.stderr, file=sys.stderr)
                    print("ERROR      %-36s does not build" % e["name"])
                    failures += 1
                    continue
                status = {x: run_exe(scratch, x) for x in e["kills"]}
            finally:
                with open(path, "w") as f:
                    f.write(original)
            survivors = [x for x, rc in status.items() if rc == 0]
            shown = " ".join(
                "%s=%s" % (os.path.basename(x), "timeout" if rc is None else rc)
                for x, rc in status.items())
            verdict = "SURVIVED" if survivors else "killed"
            print("%-10s %-36s %s  (%.1f s)" % (verdict, e["name"], shown, time.time() - t0))
            if survivors:
                failures += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    n_eq = sum(1 for e in entries if "equivalent" in e)
    print("mutants: %d entries (%d equivalent), %d failed, %.1f s"
          % (len(entries), n_eq, failures, time.time() - started))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
