let () =
  Alcotest.run "dbtree"
    [
      ("sim", Test_sim.suite);
      ("blink", Test_blink.suite);
      ("history", Test_history.suite);
      ("workload", Test_workload.suite);
      ("fixed", Test_fixed.suite);
      ("mobile", Test_mobile.suite);
      ("variable", Test_variable.suite);
      ("lht", Test_lht.suite);
      ("verify", Test_verify.suite);
      ("reliable", Test_reliable.suite);
      ("kv", Test_kv.suite);
      ("misc", Test_misc.suite);
      ("regressions", Test_regressions.suite);
      ("recovery", Test_recovery.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("scale", Test_scale.suite);
      ("lint", Test_lint.suite);
      ("flow", Test_flow.suite);
      ("race", Test_race.suite);
      ("perf", Test_perf_lint.suite);
      ("check", Test_check.suite);
    ]
