(* Golden regression tests: exact final load vectors for deterministic
   configurations (and seed-pinned randomized ones), captured from a
   verified build.  Any change to these values means the dynamics of an
   algorithm, the engine, the port numbering of a generator, or the PRNG
   stream has changed — which must be a deliberate, documented decision,
   never an accident of refactoring. *)

let check_loads name expected actual = Alcotest.(check (array int)) name expected actual

let run g balancer ~total ~steps =
  let n = Graphs.Graph.n g in
  let init = Core.Loads.point_mass ~n ~total in
  (Core.Engine.run ~graph:g ~balancer ~init ~steps ()).Core.Engine.final_loads

let test_rotor_router_cycle8 () =
  let g = Graphs.Gen.cycle 8 in
  check_loads "rotor-router cycle(8), 64 tokens, 10 steps"
    [| 11; 11; 8; 6; 5; 6; 7; 10 |]
    (run g (Core.Rotor_router.make g ~self_loops:2) ~total:64 ~steps:10)

let test_send_round_torus33 () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  check_loads "send-round torus(3x3), 100 tokens, 12 steps"
    [| 16; 15; 15; 15; 6; 6; 15; 6; 6 |]
    (run g (Core.Send_round.make g ~self_loops:8) ~total:100 ~steps:12)

let test_rotor_router_star_torus33 () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  check_loads "rotor-router* torus(3x3), 100 tokens, 12 steps"
    [| 11; 12; 12; 11; 11; 11; 10; 11; 11 |]
    (run g (Core.Rotor_router_star.make g) ~total:100 ~steps:12)

let test_send_floor_hypercube3 () =
  let g = Graphs.Gen.hypercube 3 in
  check_loads "send-floor Q3, 50 tokens, 15 steps"
    [| 8; 6; 6; 6; 6; 6; 6; 6 |]
    (run g (Core.Send_floor.make g ~self_loops:3) ~total:50 ~steps:15)

let test_random_extra_seeded () =
  (* Pins both the algorithm and the SplitMix64 stream. *)
  let g = Graphs.Gen.hypercube 3 in
  check_loads "random-extra Q3 seed 7, 50 tokens, 15 steps"
    [| 6; 6; 6; 7; 7; 6; 6; 6 |]
    (run g
       (Baselines.Random_extra.make (Prng.Splitmix.create 7) g ~self_loops:3)
       ~total:50 ~steps:15)

let test_mimic_torus33 () =
  let g = Graphs.Gen.torus [ 3; 3 ] in
  let init = Core.Loads.point_mass ~n:9 ~total:100 in
  let balancer = Baselines.Mimic.make g ~self_loops:4 ~init in
  check_loads "mimic torus(3x3), 100 tokens, 12 steps"
    [| 12; 10; 10; 10; 12; 12; 10; 12; 12 |]
    (Core.Engine.run ~graph:g ~balancer ~init ~steps:12 ()).Core.Engine.final_loads

let test_splitmix_stream_golden () =
  (* The raw PRNG stream itself: five pinned draws. *)
  let g = Prng.Splitmix.create 42 in
  Alcotest.(check (list int))
    "splitmix(42) int-100 stream"
    [ 70; 97; 85; 91; 89 ]
    (List.init 5 (fun _ -> Prng.Splitmix.int g 100))

(* Longer pins of each SplitMix64 entry point, one fresh seed per
   stream.  [int61]'s bound 2⁶¹ + 1 makes the rejection branch of [int]
   fire on roughly half the draws. *)
let test_splitmix_next64_golden () =
  let g = Prng.Splitmix.create 2015 in
  Alcotest.(check (list int64))
    "splitmix(2015) next64 stream"
    [
      -2887974576641807100L; -3658240345682240554L; -78742318324972886L;
      -2878072549678396843L; 1849243781608787463L; 1434140862943707564L;
      -7714609865105405227L; 2899490407156606700L; 5953458736505772031L;
      5244371949763279178L; -7894052186202790415L; 6959930321513910379L;
      7771566699719257732L; 4268266691507824153L; 4888304698928178051L;
      -7025951998949199964L; -73704914734580704L; 2470310508039993187L;
      -6364803644211741456L; 4778924760697548408L;
    ]
    (List.init 20 (fun _ -> Prng.Splitmix.next64 g))

let bits = List.map Int64.bits_of_float

let test_splitmix_float_golden () =
  let g = Prng.Splitmix.create 2016 in
  Alcotest.(check (list int64))
    "splitmix(2016) float-1.0 stream (bit patterns)"
    (bits
       [
         0x1.633adbc4530f9p-1; 0x1.3f6941b8f1512p-1; 0x1.7428ddd9a9494p-3;
         0x1.ade81e16eb843p-1; 0x1.2de3af065cd7bp-1; 0x1.ea0e546d96654p-3;
         0x1.72f9db40376ep-2; 0x1.19b140f6388e5p-1; 0x1.864c62ccaf484p-3;
         0x1.42fe4cb4cf516p-2; 0x1.158813d12956fp-1; 0x1.b2772e6721c1bp-1;
         0x1.4964d80c3361p-2; 0x1.4694a9639f613p-1; 0x1.3c56b13538d48p-3;
         0x1.db8fe6e0ac633p-1; 0x1.39952921a39c2p-2; 0x1.5017dc36481f2p-1;
         0x1.082ae0226f129p-1; 0x1.0bfb50943f06p-5;
       ])
    (bits (List.init 20 (fun _ -> Prng.Splitmix.float g 1.0)))

let test_splitmix_int_golden () =
  let g = Prng.Splitmix.create 2017 in
  Alcotest.(check (list int))
    "splitmix(2017) int-2^40 stream"
    [
      517308634541; 772304382024; 631600024046; 885213458013;
      397426237906; 701782952924; 188250095892; 264668453478;
      676362362185; 175822442025; 518414483005; 1042114761583;
      421926030952; 625606710967; 233011077704; 194493512206;
      604801244133; 838456227395; 744127704685; 844391548680;
    ]
    (List.init 20 (fun _ -> Prng.Splitmix.int g (1 lsl 40)));
  let g = Prng.Splitmix.create 2019 in
  Alcotest.(check (list int))
    "splitmix(2019) int-(2^61+1) stream"
    [
      69724017669803393; 1241013013597818915; 191915478236780863;
      1793448319285508592; 1290101110619903268; 879216950319299987;
      1452272816622970346; 988355199544531897; 1703225017578903320;
      1094082299914917247; 2138182562874612560; 1853392721774781454;
      1937545803833316910; 2016142152184211410; 1845744009763564332;
      1900170976170775110; 1274161199838667683; 753448164624015484;
      399989067027589927; 228308714337035558;
    ]
    (List.init 20 (fun _ -> Prng.Splitmix.int g ((1 lsl 61) + 1)))

let test_splitmix_bool_golden () =
  let g = Prng.Splitmix.create 2018 in
  Alcotest.(check (list bool))
    "splitmix(2018) bool stream"
    [
      true; false; false; true; true;
      false; true; false; true; false;
      true; false; false; true; true;
      true; true; true; false; true;
    ]
    (List.init 20 (fun _ -> Prng.Splitmix.bool g))

let test_splitmix_split_copy_golden () =
  (* g draws, splits h off, h is copied to c (c replays h's next draws),
     c splits k off, then g resumes. *)
  let g = Prng.Splitmix.create 2020 in
  let draws r k = List.init k (fun _ -> Prng.Splitmix.int r 1000) in
  let a = draws g 1 in
  let h = Prng.Splitmix.split g in
  let h1 = draws h 3 in
  let c = Prng.Splitmix.copy h in
  let c1 = draws c 3 in
  let h2 = draws h 3 in
  let k = Prng.Splitmix.split c in
  let k1 = draws k 3 in
  let g1 = draws g 3 in
  Alcotest.(check (list int))
    "splitmix(2020) split/copy sequence"
    [ 479; 690; 543; 186; 49; 322; 892; 49; 322; 892; 426; 578; 469; 9; 252; 482 ]
    (List.concat [ a; h1; c1; h2; k1; g1 ])

(* Digest of a graph's whole port structure: the flat adjacency, every
   reverse port, and the edge list in its stored order. *)
let graph_digest g =
  let b = Buffer.create 4096 in
  let add i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ' '
  in
  Array.iter add (Graphs.Graph.adjacency g);
  for u = 0 to Graphs.Graph.n g - 1 do
    for k = 0 to Graphs.Graph.degree g - 1 do
      add (Graphs.Graph.reverse_port g u k)
    done
  done;
  Array.iter
    (fun (u, v) ->
      add u;
      add v)
    (Graphs.Graph.edges g);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Seed-pinned random regular graphs.  The rng's next draw after the
   build pins how many draws the pairing, the repair and the restarts
   consumed.  (50, 20) repairs heavily; (10, 3) and (12, 5) are small
   enough to restart; (8, 7) can only end as K_8 and (50, 30) is dense,
   so both lean on the repair's rejections. *)
let test_random_regular_golden () =
  List.iter
    (fun (n, d, seed, digest, next) ->
      let rng = Prng.Splitmix.create seed in
      let g = Graphs.Gen.random_regular rng ~n ~d in
      let name = Printf.sprintf "random_regular n=%d d=%d seed=%d" n d seed in
      Alcotest.(check string) (name ^ " digest") digest (graph_digest g);
      Alcotest.(check int64) (name ^ " next draw") next (Prng.Splitmix.next64 rng))
    [
      (50, 20, 1, "f7918e13ad283a16275bc56c2f0bf13f", -2967545296259427018L);
      (50, 20, 2, "3e05a3e9b10c8e6aad4e9e5cd3dbb740", 4797402493842075885L);
      (10, 3, 1, "21e860a1a00303a18401b42ddabbffef", 7485114837213641089L);
      (10, 3, 7, "753f0167ad56984979f2948e25440225", 4727862545853145637L);
      (12, 5, 3, "9ff0e9b94b544130ec04694bdf48cbdb", -8212947087056445887L);
      (12, 5, 11, "006730156e68aeee7ca0ffab0ddbf163", -1712415665580914381L);
      (1 lsl 14, 8, 2015, "6b60eadb19b9be529f547fde5b1d8e5b", 3695332237373117623L);
      (8, 7, 1, "4b9536acbbbfbd1add7a7683ace531d6", 9190408975747539360L);
      (8, 7, 2, "557a019dcbbce41a99daf394dd171d5e", 5516926183006936410L);
      (50, 30, 1, "9915c44bb096d60d2f98acabff490b90", 4825352780376982854L);
      (50, 30, 2, "ebf28d77cf686a99ba9557047e7859f8", -8544089175952606372L);
    ]

(* Seeds on which every attempt fails: the message, and the rng's next
   draw, which pins the draws of the failed repairs. *)
let test_random_regular_exhausted_golden () =
  List.iter
    (fun (max_attempts, seed, next) ->
      let rng = Prng.Splitmix.create seed in
      let name = Printf.sprintf "random_regular n=8 d=7 max_attempts=%d seed=%d" max_attempts seed in
      Alcotest.check_raises name
        (Failure "Gen.random_regular: exhausted attempts (graph too constrained)")
        (fun () -> ignore (Graphs.Gen.random_regular ~max_attempts rng ~n:8 ~d:7));
      Alcotest.(check int64) (name ^ " next draw") next (Prng.Splitmix.next64 rng))
    [ (1, 3, -4821081084679084234L); (2, 2, 6674187204813061685L) ]

let test_deterministic_generators_golden () =
  List.iter
    (fun (name, g, digest) -> Alcotest.(check string) name digest (graph_digest g))
    [
      ("torus 256x256", Graphs.Gen.torus [ 256; 256 ], "a0eb6731748bdcd4235dafe3837e4d44");
      ("hypercube 10", Graphs.Gen.hypercube 10, "17eea85926a4832314394a1682e5620f");
      ("petersen", Graphs.Gen.petersen (), "5f65b370b790a2f6c3c24279352cd97a");
      ("cycle 7", Graphs.Gen.cycle 7, "375a4b6f6f41647839693d9ccbe1ca89");
      ("complete 6", Graphs.Gen.complete 6, "45792ffeba63b1218a3d7a0edff9302f");
      ("complete_bipartite 4", Graphs.Gen.complete_bipartite 4, "ade79fe42de206aeabaec4341b644a8a");
      ("circulant 12 [1; 3; 6]", Graphs.Gen.circulant 12 [ 1; 3; 6 ], "674a64105aa40fd8160b74bb7f4dd5a1");
      ("clique_circulant n=10 d=5", Graphs.Gen.clique_circulant ~n:10 ~d:5, "a8dd1b6c8de9fdeb49ae793d51892669");
      ("torus 3x4x5", Graphs.Gen.torus [ 3; 4; 5 ], "8d857973b0926d5850c661bb0312c1a6");
      ("torus 16x16x16", Graphs.Gen.torus [ 16; 16; 16 ], "f8a0c1c7760cdf469bd8db059999b5c3");
      ( "double cover of random_regular n=50 d=4 seed=5",
        Graphs.Gen.bipartite_double_cover
          (Graphs.Gen.random_regular (Prng.Splitmix.create 5) ~n:50 ~d:4),
        "8c6f72b87c4a0dff2dedaeb5c65b4b64" );
    ]

(* The shuffle of [0 .. len-1], and the rng's next draw after it, which
   pins the number of draws.  Fisher–Yates draws with bounds len down to
   2, so length 2 takes only the power-of-two path and every length from
   3 on the rejection-sampling path too (a draw that is actually
   rejected is pinned in test_prng). *)
let test_shuffle_golden () =
  let show a = String.concat " " (List.map string_of_int (Array.to_list a)) in
  List.iter
    (fun (len, seed, expected, next) ->
      let rng = Prng.Splitmix.create seed in
      let a = Array.init len (fun i -> i) in
      Prng.Splitmix.shuffle rng a;
      let name = Printf.sprintf "shuffle len=%d seed=%d" len seed in
      let got = if len <= 9 then show a else Digest.to_hex (Digest.string (show a)) in
      Alcotest.(check string) name expected got;
      Alcotest.(check int64) (name ^ " next draw") next (Prng.Splitmix.next64 rng))
    [
      (1, 31, "0", -8022752648205842259L);
      (2, 32, "0 1", 1998892580777349955L);
      (7, 33, "5 4 2 3 6 0 1", -3555975567565050050L);
      (8, 34, "1 3 7 6 0 4 5 2", -9098490173232886872L);
      (9, 35, "8 1 6 5 2 3 7 4 0", 4770961036587382747L);
      (1000, 36, "1055b04c80b613a94c071515de87e483", 3907685078115013886L);
    ]

(* Dimension exchange on a seeded random 4-regular graph: the greedy
   colouring, and the final loads and discrepancy series of the
   random-matching and randomized-circuit modes, with each rng's next
   draw, which pins the matchings' shuffles and the coins. *)
let test_dimexch_golden () =
  let g = Graphs.Gen.random_regular (Prng.Splitmix.create 41) ~n:30 ~d:4 in
  let init = Core.Loads.point_mass ~n:30 ~total:1000 in
  let digest parts = Digest.to_hex (Digest.string (String.concat " " parts)) in
  let coloring =
    Array.to_list (Baselines.Dimexch.edge_coloring g)
    |> List.concat_map (fun cls ->
           "|" :: List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Array.to_list cls))
  in
  Alcotest.(check string) "greedy colouring" "5eabf6a6bdf850d78253dbb5fa229272" (digest coloring);
  List.iter
    (fun (name, mode_of, seed, loads, series, next) ->
      let rng = Prng.Splitmix.create seed in
      let r = Baselines.Dimexch.run (mode_of rng) g ~init ~steps:25 in
      check_loads (name ^ " final loads") loads r.Baselines.Dimexch.final_loads;
      Alcotest.(check string) (name ^ " series") series
        (digest
           (List.map
              (fun (t, d) -> Printf.sprintf "%d:%d" t d)
              (Array.to_list r.Baselines.Dimexch.series)));
      Alcotest.(check int64) (name ^ " next draw") next (Prng.Splitmix.next64 rng))
    [
      ( "random matching seed 42",
        (fun rng -> Baselines.Dimexch.Random_matching rng),
        42,
        [| 38; 34; 28; 35; 37; 29; 34; 32; 36; 35; 34; 29; 32; 35; 33;
           34; 38; 33; 33; 34; 32; 30; 28; 33; 37; 34; 33; 31; 31; 38 |],
        "f82da0d2385bc83a4e8f3318c86b6603",
        1830324114740587160L );
      ( "randomized circuit seed 43",
        (fun rng -> Baselines.Dimexch.Balancing_circuit_randomized rng),
        43,
        [| 36; 36; 30; 34; 37; 31; 34; 33; 36; 30; 32; 31; 33; 32; 35;
           33; 34; 30; 33; 33; 35; 31; 31; 34; 35; 34; 34; 33; 34; 36 |],
        "2443288530a7aa6a650b7b27c5ac99b9",
        74395509103489794L );
    ]

(* A small open system: Poisson arrivals at 90% of the service
   capacity plus a flash crowd wide enough to push max − min past n, so
   both the counting and the selection branch of the p99 run. *)
let test_open_system_golden () =
  let graph = Graphs.Gen.torus [ 8; 8 ] in
  let balancer = Core.Rotor_router.make graph ~self_loops:4 in
  let arrival =
    Workload.Arrival.overlay
      (Workload.Arrival.poisson ~rng:(Prng.Splitmix.create 17) ~rate:115.2)
      (Workload.Arrival.flash_crowd ~at:8 ~size:512 ~node:3 ())
  in
  let lifetime = Workload.Lifetime.service ~rate:2 in
  let config = Workload.Engine.config ~arrival ~lifetime ~rounds:64 () in
  let r =
    Harness.Openrun.run ~config ~graph ~balancer ~init:(Array.make 64 0) ()
  in
  Alcotest.(check (list int64))
    "overload series (bit patterns)"
    (bits
       [
         0x1.f07c1f07c1f08p+1; 0x1.ce434a9b1016ep+1; 0x1.dd937fe41cc16p+1;
         0x1.af72015d867bcp+1; 0x1.8618618618618p+1; 0x1.19b4597179d59p+2;
         0x1.cfb2b78c13522p+1; 0x1.e3e499635dp+3; 0x1.6a5a1adf9803fp+3;
         0x1.1879e1879e18p+3; 0x1.ce9073882cf57p+2; 0x1.8a506f99e595p+2;
         0x1.56f6f6f6f6f6ap+2; 0x1.39d15cab47b7ep+2; 0x1.14b203f47cc24p+2;
         0x1.ed99999999996p+1; 0x1.c6320c7b5d5f1p+1; 0x1.9f4ebb0182c5p+1;
         0x1.865836381e925p+1; 0x1.5c4a368326622p+1; 0x1.4c4a4ba01270cp+1;
         0x1.362a31088d661p+1; 0x1.1f77d73a1ec44p+1; 0x1.3f8c295b51269p+1;
         0x1.34f94ec682c81p+1; 0x1.344d1344d1345p+1; 0x1.3728077280771p+1;
         0x1.1e99bfd03bb56p+1; 0x1.1536202ecfb9bp+1; 0x1.05f417d05f418p+1;
         0x1.04707661aa2c6p+1; 0x1.ddaaea5b0e2e4p+0; 0x1.b620c7f544ee7p+0;
         0x1.ba5e353f7ced7p+0; 0x1.bd3d92af46e1bp+0; 0x1.bd3d92af46e1bp+0;
         0x1.bd3d92af46e1bp+0; 0x1.9ab6ed42f170cp+0; 0x1.c49674ffe60b6p+0;
         0x1.af286bca1af28p+0; 0x1.9d871576403ebp+0; 0x1.b5bd8ea80fa23p+0;
         0x1.cac083126e979p+0; 0x1.a5e7d40d2f3eap+0; 0x1.c0e070381c0ep+0;
         0x1.da642a730f73dp+0; 0x1.e808b70344a14p+0; 0x1.ea1ea1ea1ea1fp+0;
         0x1.c93a581c93a58p+0; 0x1.b7e90ff972471p+0; 0x1.fc9122beb66ccp+0;
         0x1.1111111111111p+1; 0x1.6895114a5dab9p+1; 0x1.1111111111111p+1;
         0x1.3fa2608c6f2d2p+1; 0x1.3fa2608c6f2d2p+1; 0x1.904f62ea91e45p+1;
         0x1.74e81b4e81b4bp+1; 0x1.6db6db6db6db7p+1; 0x1.4afd6a052bf5bp+1;
         0x1.f3831f3831f38p+1; 0x1.8f9c18f9c18fap+1; 0x1.9ec8e951033d9p+1;
         0x1.6816816816817p+1;
       ])
    (bits (Array.to_list (Array.map snd r.Workload.Engine.overload_series)));
  let s = r.Workload.Engine.steady_overload in
  Alcotest.(check int) "steady overload count" 32 s.Workload.Steady.count;
  Alcotest.(check (list int64))
    "steady overload mean, p50, p95, p99, p999, max (bit patterns)"
    (bits
       [
         0x1.18261eccce15cp+1; 0x1.e13670bb2a0a8p+0; 0x1.96d2df6578194p+1;
         0x1.d93f281c0c6e7p+1; 0x1.f0e2b9b56166ap+1; 0x1.f3831f3831f38p+1;
       ])
    (bits
       Workload.Steady.[ s.mean; s.p50; s.p95; s.p99; s.p999; s.max ]);
  check_loads "final loads"
    [|
      1; 0; 1; 4; 2; 0; 1; 1; 2; 1; 1; 2; 1; 0; 3; 3;
      2; 1; 1; 2; 3; 0; 1; 2; 2; 0; 3; 1; 3; 3; 1; 4;
      0; 0; 2; 1; 1; 3; 3; 1; 3; 2; 3; 1; 3; 2; 1; 1;
      2; 0; 1; 1; 0; 2; 1; 1; 0; 0; 0; 1; 1; 1; 1; 0;
    |]
    r.Workload.Engine.final_loads

let loads_digest loads =
  Digest.to_hex
    (Digest.string (String.concat " " (Array.to_list (Array.map string_of_int loads))))

(* The same open system on a 10x10 torus: n = 100 is not a power of two,
   so every uniform placement can take the rejection path of
   [Splitmix.int], and the rate 180 (90% of 2n) splits into eight Knuth
   leaves. *)
let test_open_system_golden_100 () =
  let graph = Graphs.Gen.torus [ 10; 10 ] in
  let balancer = Core.Rotor_router.make graph ~self_loops:4 in
  let arrival =
    Workload.Arrival.overlay
      (Workload.Arrival.poisson ~rng:(Prng.Splitmix.create 23) ~rate:180.0)
      (Workload.Arrival.flash_crowd ~at:10 ~size:1000 ~node:37 ())
  in
  let lifetime = Workload.Lifetime.service ~rate:2 in
  let config = Workload.Engine.config ~arrival ~lifetime ~rounds:48 () in
  let r =
    Harness.Openrun.run ~config ~graph ~balancer ~init:(Array.make 100 0) ()
  in
  Alcotest.(check (list int64))
    "overload series (bit patterns)"
    (bits
       [
         0x1p+2; 0x1p+2; 0x1.da12f684bda12p+1;
         0x1.8be054741fab9p+1; 0x1.6eeeeeeeeeefap+1; 0x1.8be054741fab9p+1;
         0x1.faee41e6a7498p+1; 0x1.580000000000ap+1; 0x1.958ed2308159bp+1;
         0x1.76baaf987db6ap+3; 0x1.755059b184aefp+3; 0x1.4488d6e6f9593p+3;
         0x1.1d909dadf3a0dp+3; 0x1.fcccccccccce4p+2; 0x1.cb4357fe1f725p+2;
         0x1.9fe21a291c083p+2; 0x1.8b390610fc5cbp+2; 0x1.6570e046d2ffcp+2;
         0x1.551f86ef9b1d6p+2; 0x1.32dafdb3f0affp+2; 0x1.324330b32c88ap+2;
         0x1.12cfcc95f54a1p+2; 0x1.08beea4e1a08ep+2; 0x1.01f32fa26711cp+2;
         0x1.06559fe40a7c4p+2; 0x1.d291099c655a6p+1; 0x1.ed9b8396ba9dfp+1;
         0x1.dc93a581c93a9p+1; 0x1.c584148d7327ap+1; 0x1.a05f08e8d5d47p+1;
         0x1.9db40eb2d5214p+1; 0x1.7d9e2c776ca05p+1; 0x1.838d130bf1cbdp+1;
         0x1.6d926d926d92ap+1; 0x1.590ec9c6d1a9ep+1; 0x1.4d6633443e961p+1;
         0x1.5020408102042p+1; 0x1.462d4c2eab95p+1; 0x1.28ce795f9064ap+1;
         0x1.34a70913f8bcdp+1; 0x1.2e71463ae7149p+1; 0x1.36b0df6b0df6fp+1;
         0x1.4514514514514p+1; 0x1.362d7e239129cp+1; 0x1.142a745335eaep+1;
         0x1.194c1bacf914ep+1; 0x1.11cbfa862911cp+1; 0x1.10cb58f6ec079p+1;
       ])
    (bits (Array.to_list (Array.map snd r.Workload.Engine.overload_series)));
  Alcotest.(check string) "final loads digest" "cd45a89dd63ce07cfc4d7c1c02f5d740"
    (loads_digest r.Workload.Engine.final_loads)

let () =
  (* Guard: if the pinned PRNG stream ever changes, regenerate ALL seeded
     goldens, not just the failing one. *)
  Alcotest.run "goldens"
    [
      ( "deterministic dynamics",
        [
          Alcotest.test_case "rotor-router cycle8" `Quick test_rotor_router_cycle8;
          Alcotest.test_case "send-round torus33" `Quick test_send_round_torus33;
          Alcotest.test_case "rotor-router* torus33" `Quick
            test_rotor_router_star_torus33;
          Alcotest.test_case "send-floor Q3" `Quick test_send_floor_hypercube3;
          Alcotest.test_case "mimic torus33" `Quick test_mimic_torus33;
        ] );
      ( "seeded randomness",
        [
          Alcotest.test_case "random-extra seed 7" `Quick test_random_extra_seeded;
          Alcotest.test_case "splitmix stream" `Quick test_splitmix_stream_golden;
          Alcotest.test_case "splitmix next64" `Quick test_splitmix_next64_golden;
          Alcotest.test_case "splitmix float" `Quick test_splitmix_float_golden;
          Alcotest.test_case "splitmix int" `Quick test_splitmix_int_golden;
          Alcotest.test_case "splitmix bool" `Quick test_splitmix_bool_golden;
          Alcotest.test_case "splitmix split/copy" `Quick
            test_splitmix_split_copy_golden;
          Alcotest.test_case "shuffle" `Quick test_shuffle_golden;
          Alcotest.test_case "dimension exchange" `Quick test_dimexch_golden;
        ] );
      ( "graph generators",
        [
          Alcotest.test_case "random regular" `Quick test_random_regular_golden;
          Alcotest.test_case "random regular exhausted" `Quick
            test_random_regular_exhausted_golden;
          Alcotest.test_case "torus, hypercube, petersen" `Quick
            test_deterministic_generators_golden;
        ] );
      ( "open system",
        [
          Alcotest.test_case "torus 8x8, 64 rounds" `Quick test_open_system_golden;
          Alcotest.test_case "torus 10x10, 48 rounds" `Quick
            test_open_system_golden_100;
        ] );
    ]
