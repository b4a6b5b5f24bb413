type summary = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}

let empty_summary =
  { count = 0; mean = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0; p999 = 0.0; max = 0.0 }

(* The p-th percentile of an n-sample sits at rank p/100·(n−1) of the
   ascending order: it interpolates between the order statistics at
   [lower n p] and [min (lower n p + 1) (n − 1)].  Float and integer
   samples share these helpers, so they agree bit for bit. *)
let[@inline] rank n p = p /. 100.0 *. float_of_int (n - 1)
let[@inline] lower n p = int_of_float (floor (rank n p))

let[@inline] interpolate n p a b =
  let r = rank n p in
  let frac = r -. floor r in
  (a *. (1.0 -. frac)) +. (b *. frac)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Steady.percentile: empty sample";
  let lo = lower n p in
  interpolate n p sorted.(lo) sorted.(Int.min (lo + 1) (n - 1))

let int_percentile ~min ~max xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Steady.int_percentile: empty sample";
  let lo = lower n p in
  let hi = Int.min (lo + 1) (n - 1) in
  let a = ref 0 and b = ref 0 in
  let range = max - min in
  if range >= 0 && range < n then begin
    (* Counting pass over [min, max], walked down from the top: index i
       of the ascending order holds value v iff
       n − #{≥ v} ≤ i < n − #{> v}.  A high percentile stops early. *)
    let count =
      if range < 64 then begin
        (* Neighbouring nodes hold the same few values, so one tally
           chains each add through the store of the add before.  Four
           tallies, node u's in slot 4v + u mod 4, break the chain.
           Up to range 63 they fit one minor-heap block (≤ 256 words);
           wider, they would be allocated in the major heap, so wider
           ranges keep one tally.  The four are summed in place: slot v
           takes slots 4v..4v + 3, and no later sum reads slot v. *)
        let tally = Array.make (4 * (range + 1)) 0 in
        let n4 = n land lnot 3 in
        let u = ref 0 in
        while !u < n4 do
          let i = !u in
          let v = 4 * (xs.(i) - min) in
          tally.(v) <- tally.(v) + 1;
          let v = (4 * (xs.(i + 1) - min)) + 1 in
          tally.(v) <- tally.(v) + 1;
          let v = (4 * (xs.(i + 2) - min)) + 2 in
          tally.(v) <- tally.(v) + 1;
          let v = (4 * (xs.(i + 3) - min)) + 3 in
          tally.(v) <- tally.(v) + 1;
          u := i + 4
        done;
        for i = n4 to n - 1 do
          let v = 4 * (xs.(i) - min) in
          tally.(v) <- tally.(v) + 1
        done;
        for v = 0 to range do
          let t = 4 * v in
          tally.(v) <- tally.(t) + tally.(t + 1) + tally.(t + 2) + tally.(t + 3)
        done;
        tally
      end
      else begin
        let count = Array.make (range + 1) 0 in
        for u = 0 to n - 1 do
          let v = xs.(u) - min in
          count.(v) <- count.(v) + 1
        done;
        count
      end
    in
    let above = ref 0 and v = ref range and need_b = ref true in
    while !v >= 0 do
      let first = n - !above - count.(!v) in
      if !need_b && first <= hi then begin
        b := !v + min;
        need_b := false
      end;
      if first <= lo then begin
        a := !v + min;
        v := -1
      end
      else begin
        above := !above + count.(!v);
        decr v
      end
    done
  end
  else begin
    (* Wide range: radix select of the order statistic at [lo] on the
       offsets x − min, a byte a pass from the top, into one 256-slot
       histogram; [xs] is never copied.  An offset wraps mod 2⁶³ and
       its bits read as unsigned, so an overflowing max − min orders
       right too.  The first pass takes the top byte of max − min (the
       7 bits at shift 56 when that overflows), so every offset shares
       the empty prefix above it. *)
    let count = Array.make 256 0 in
    let s = ref 56 in
    if range >= 0 then
      while !s > 0 && range lsr !s = 0 do
        s := !s - 8
      done;
    let prefix = ref 0 and k = ref lo and last = ref 0 in
    while !s >= 0 do
      let sh = !s in
      Array.fill count 0 256 0;
      for u = 0 to n - 1 do
        let key = xs.(u) - min in
        if sh = 56 || key lsr (sh + 8) = !prefix then begin
          let g = (key lsr sh) land 255 in
          count.(g) <- count.(g) + 1
        end
      done;
      let g = ref 0 in
      while !k >= count.(!g) do
        k := !k - count.(!g);
        incr g
      done;
      prefix := (!prefix lsl 8) lor !g;
      last := count.(!g);
      s := sh - 8
    done;
    a := !prefix + min;
    (* The [last] values equal to [a] hold ranks lo − k to
       lo − k + last − 1; past them, [b] is the next larger value. *)
    if !k + 1 < !last || hi = lo then b := !a
    else begin
      let next = ref max_int in
      for u = 0 to n - 1 do
        let x = xs.(u) in
        if x > !a && x < !next then next := x
      done;
      b := !next
    end
  end;
  interpolate n p (float_of_int !a) (float_of_int !b)

let summarize xs =
  let n = Array.length xs in
  if n = 0 then empty_summary
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    {
      count = n;
      mean = Array.fold_left ( +. ) 0.0 xs /. float_of_int n;
      p50 = percentile sorted 50.0;
      p95 = percentile sorted 95.0;
      p99 = percentile sorted 99.0;
      p999 = percentile sorted 99.9;
      max = sorted.(n - 1);
    }
  end

(* MSER (White 1997): delete the prefix that minimizes the standard
   error of the remaining mean.  Suffix sums make the scan O(n). *)
let warmup_cutoff xs =
  let n = Array.length xs in
  if n < 8 then 0
  else begin
    (* suffix.(d) = Σ_{i≥d} x_i, suffix2.(d) = Σ_{i≥d} x_i² *)
    let suffix = Array.make (n + 1) 0.0 in
    let suffix2 = Array.make (n + 1) 0.0 in
    for i = n - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) +. xs.(i);
      suffix2.(i) <- suffix2.(i + 1) +. (xs.(i) *. xs.(i))
    done;
    let best_d = ref 0 and best = ref infinity in
    for d = 0 to n / 2 do
      let m = float_of_int (n - d) in
      let mean = suffix.(d) /. m in
      let var = Float.max 0.0 ((suffix2.(d) /. m) -. (mean *. mean)) in
      let mser = sqrt var /. sqrt m in
      if mser < !best then begin
        best := mser;
        best_d := d
      end
    done;
    !best_d
  end

let diverging xs =
  let n = Array.length xs in
  if n < 8 then false
  else begin
    let w = n / 4 in
    let start = n - (4 * w) in
    let mean_of k =
      let s = ref 0.0 in
      for i = start + (k * w) to start + ((k + 1) * w) - 1 do
        s := !s +. xs.(i)
      done;
      !s /. float_of_int w
    in
    let m0 = mean_of 0 and m1 = mean_of 1 and m2 = mean_of 2 and m3 = mean_of 3 in
    m0 < m1 && m1 < m2 && m2 < m3
    && m3 -. m0 > Float.max (0.25 *. Float.abs m0) 4.0
  end

let absorb_time ~series ~at ~band =
  let n = Array.length series in
  let rec scan i =
    if i >= n then None
    else begin
      let r, v = series.(i) in
      if r >= at && v <= band then Some (r - at) else scan (i + 1)
    end
  in
  scan 0
