let () =
  Alcotest.run "compact_routing"
    [
      ("heap", Test_heap.suite);
      ("graph", Test_graph.suite);
      ("generators", Test_generators.suite);
      ("dijkstra", Test_dijkstra.suite);
      ("bfs+apsp+io", Test_bfs_apsp.suite);
      ("vicinity", Test_vicinity.suite);
      ("tree-routing", Test_tree_routing.suite);
      ("substrate", Test_substrate.suite);
      ("substrate-cache", Test_substrate_cache.suite);
      ("lemma7", Test_seq_routing.suite);
      ("lemma8", Test_seq_routing2.suite);
      ("schemes", Test_schemes.suite);
      ("baselines", Test_baselines.suite);
      ("generalized", Test_generalized.suite);
      ("catalog", Test_catalog.suite);
      ("ni+views", Test_ni_and_views.suite);
      ("paper-lemmas", Test_paper_lemmas.suite);
      ("scheme-util", Test_scheme_util.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("faults", Test_faults.suite);
      ("seq-common", Test_seq_common.suite);
      ("workload", Test_workload.suite);
      ("tz-hierarchy", Test_tz_hierarchy.suite);
      ("bits", Test_bits.suite);
      ("compiled", Test_compiled.suite);
      ("witness", Test_witness.suite);
      ("parallel", Test_parallel.suite);
      ("rt-scale", Test_rt_scale.suite);
      ("delta", Test_delta.suite);
      ("telemetry", Test_telemetry.suite);
      ("traffic", Test_traffic.suite);
      ("graph-io", Test_graph_io.suite);
      ("snapshot", Test_snapshot.suite);
      ("golden-routes", Test_golden_routes.suite);
    ]
