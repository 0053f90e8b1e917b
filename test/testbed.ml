(* Tests drive a machine to its result with [Kite.Scenario.run], whose
   own bound is two simulated hours.  [run] keeps the test's window as
   an assertion on the instant [finish] was first called (not the clock
   after the run's teardown), measured from the clock at the call: a
   recovery that takes 75 s must still fail a test that allows 60. *)
let run hv ~what ~within body =
  let now () = Kite_xen.Hypervisor.now hv in
  let t0 = now () and at = ref max_int in
  let v =
    Kite.Scenario.run hv ~what (fun finish ->
        body (fun v -> at := min !at (now ()); finish v))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s completed within %s" what
       (Kite_sim.Time.to_string within))
    true
    (!at - t0 <= within);
  v
