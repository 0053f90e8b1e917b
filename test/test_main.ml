let () =
  Alcotest.run "kite"
    [
      ("sim", Test_sim.suite);
      ("stats", Test_stats.suite);
      ("xen", Test_xen.suite);
      ("check", Test_check.suite);
      ("devices", Test_devices.suite);
      ("net", Test_net.suite);
      ("drivers", Test_drivers.suite);
      ("vfs", Test_vfs.suite);
      ("profiles", Test_profiles.suite);
      ("security", Test_security.suite);
      ("apps", Test_apps.suite);
      ("bench_tools", Test_bench_tools.suite);
      ("kite", Test_kite.suite);
      ("trace", Test_trace.suite);
      ("fault", Test_fault.suite);
      ("metrics", Test_metrics.suite);
      ("mq", Test_mq.suite);
      ("race", Test_race.suite);
      ("flight", Test_flight.suite);
      ("path", Test_path.suite);
      ("adversary", Test_adversary.suite);
      ("swarm", Test_swarm.suite);
      ("armed", Test_armed.suite);
    ]
