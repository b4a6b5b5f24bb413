let choice g a =
  if Array.length a = 0 then invalid_arg "Sample.choice: empty array";
  a.(Splitmix.int g (Array.length a))

let sample_without_replacement g k n =
  if k < 0 || k > n then invalid_arg "Sample.sample_without_replacement";
  (* Partial Fisher–Yates: only the first k slots are materialized. *)
  let a = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = i + Splitmix.int g (n - i) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let multinomial_tokens g ~tokens ~bins =
  if bins <= 0 then invalid_arg "Sample.multinomial_tokens: bins <= 0";
  if tokens < 0 then invalid_arg "Sample.multinomial_tokens: tokens < 0";
  let occ = Array.make bins 0 in
  for _ = 1 to tokens do
    let b = Splitmix.int g bins in
    occ.(b) <- occ.(b) + 1
  done;
  occ

let geometric_split g ~total ~parts =
  if parts <= 0 then invalid_arg "Sample.geometric_split: parts <= 0";
  if total < 0 then invalid_arg "Sample.geometric_split: total < 0";
  (* Stars and bars: choose parts-1 cut points among total+parts-1 slots. *)
  if parts = 1 then [| total |]
  else begin
    let cuts = sample_without_replacement g (parts - 1) (total + parts - 1) in
    Array.sort Int.compare cuts;
    let out = Array.make parts 0 in
    let prev = ref (-1) in
    for i = 0 to parts - 2 do
      out.(i) <- cuts.(i) - !prev - 1;
      prev := cuts.(i)
    done;
    out.(parts - 1) <- total + parts - 2 - !prev;
    out
  end
