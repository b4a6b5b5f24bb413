type properties = {
  deterministic : bool;
  stateless : bool;
  never_negative : bool;
  no_communication : bool;
}

type persistence = {
  state_save : unit -> int array;
  state_restore : int array -> unit;
  state_bound : int;
}

type assign = step:int -> node:int -> load:int -> ports:int array -> unit

type kernel = {
  reproduces : assign;
  round : step:int -> adj:int array -> int array -> int array -> int;
  round_packed : step:int -> adj:int array -> int array -> Acc.t -> int;
  round_packed16 : step:int -> adj:int array -> int array -> Acc.t -> int;
}

type t = {
  name : string;
  degree : int;
  self_loops : int;
  props : properties;
  assign : assign;
  persist : persistence option;
  kernel : kernel option;
}

let d_plus b = b.degree + b.self_loops

let resumable b = b.props.stateless || b.persist <> None

let per_node_persistence ~bound arr =
  Some
    {
      state_save = (fun () -> Array.copy arr);
      state_restore =
        (fun saved ->
          if Array.length saved <> Array.length arr then
            invalid_arg "Balancer.state_restore: state length mismatch";
          Array.iteri
            (fun u x ->
              if x < 0 || x >= bound then
                invalid_arg
                  (Printf.sprintf
                     "Balancer.state_restore: node %d state %d outside [0, %d)" u x
                     bound))
            saved;
          Array.blit saved 0 arr 0 (Array.length arr));
      state_bound = bound;
    }

let paper_deterministic =
  { deterministic = true; stateless = false; never_negative = true; no_communication = true }

let paper_stateless =
  { deterministic = true; stateless = true; never_negative = true; no_communication = true }
