type mode =
  | Plain
  | Faulty of { plan : Faults.Schedule.plan }
  | Lossy of { config : Net.Async_engine.config; plan : Faults.Schedule.plan }

(* Slice a multi-round plan down to what one round sees.  Point events
   (crashes, shocks) fire only in their scheduled round; an outage
   spanning [step, last_step] is re-emitted as a one-step outage in
   every round of that interval, so the link stays dark for the same
   rounds as in a closed-system run. *)
let plan_at plan ~round =
  List.filter_map
    (fun (t : Faults.Schedule.timed) ->
      match t.Faults.Schedule.event with
      | Faults.Schedule.Edge_outage { node; port; last_step } ->
        if t.Faults.Schedule.step <= round && round <= last_step then
          Some
            {
              Faults.Schedule.step = 1;
              event = Faults.Schedule.Edge_outage { node; port; last_step = 1 };
            }
        else None
      | Faults.Schedule.Crash _ | Faults.Schedule.Load_shock _ ->
        if t.Faults.Schedule.step = round then
          Some { t with Faults.Schedule.step = 1 }
        else None)
    plan

(* One Core.Engine round into a kept spare.  Every open-system round is
   the balancer's step 1, so step-dependent schemes (mimic) see the same
   step number in every round and seeded runs replay.  The spare is made
   on the first call; after that each round scatters into the array
   handed over the round before, which the stepper contract gives back
   to the stepper, so a round allocates no n-array.  A caller that
   broke the contract by handing the spare itself back would get
   [step_into]'s [Invalid_argument], not a round read from zeroed
   loads. *)
let plain_stepper ~graph ~balancer =
  let spare = ref [||] in
  fun loads ->
    if Array.length !spare = 0 then spare := Array.make (Array.length loads) 0;
    let next = !spare in
    Core.Engine.step_into ~graph ~balancer ~step:1 loads next;
    spare := loads;
    { Workload.Engine.loads = next; injected = 0; lost = 0 }

let stepper ?(mode = Plain) ~graph ~balancer () =
  match mode with
  | Plain ->
    let plain = plain_stepper ~graph ~balancer in
    fun ~round:_ loads -> plain loads
  | Faulty { plan } ->
    let plain = plain_stepper ~graph ~balancer in
    fun ~round loads ->
      (match plan_at plan ~round with
      | [] -> plain loads
      | slice ->
        let report =
          Faults.Engine.run ~mode:Faults.Engine.Sequential ~graph
            ~make_balancer:(fun () -> balancer)
            ~plan:slice ~init:loads ~steps:1 ()
        in
        {
          Workload.Engine.loads =
            report.Faults.Engine.result.Core.Engine.final_loads;
          injected = report.Faults.Engine.injected;
          lost = report.Faults.Engine.lost;
        })
  | Lossy { config; plan } ->
    fun ~round loads ->
      (* Per-round reseed keeps the channel's fault stream a pure
         function of (seed, round), independent of how many messages
         earlier rounds happened to send. *)
      let config = { config with Net.Async_engine.seed = config.seed + round } in
      let report =
        Net.Async_engine.run ~config ~plan:(plan_at plan ~round) ~graph
          ~balancer ~init:loads ~steps:1 ()
      in
      {
        Workload.Engine.loads =
          report.Net.Async_engine.result.Core.Engine.final_loads;
        injected = report.Net.Async_engine.injected;
        lost = report.Net.Async_engine.lost;
      }

let run ?(mode = Plain) ~config ~graph ~balancer ~init () =
  Workload.Engine.run config ~init (stepper ~mode ~graph ~balancer ())
