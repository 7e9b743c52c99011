(* The two kinds of result line. Every workload reports the same
   metrics, each measured on that workload's own op. *)

(* End to end: the median set-up, the op latency's median, and
   completed ops per second of the measured stream. *)
let end_to_end tally ~setup_s ~op_s ~ops_per_s =
  Outcome.finish tally
    [ ("setup_s", setup_s, "s");
      ("op_p50_ms", Stats.median op_s *. 1000.0, "ms");
      ("ops_per_s", ops_per_s, "1/s");
    ]

(* Traced: the rows of the three layer groups (the analysis flow, the
   what-if loop and the daemon's read path), each on this workload's
   design, then the traced op's own figures. [self_ms] is the summed
   self time of the layers on the op's own path, so [unattributed_ms]
   is the part of the op no layer row explains. [peak_rss_kb] is the
   peak RSS of the program that ran the ops. *)
let traced tally ~flow ~eco ~serving ~op_s ~op_cpu_s ~self_ms ~overhead_pct ~peak_rss_kb =
  let ms = List.map (fun s -> s *. 1000.0) op_s in
  let op_ms = Stats.mean ms in
  Outcome.finish tally
    (flow @ eco @ serving
     @ [ ("op_ms", op_ms, "ms");
         ("op_p90_ms", Stats.percentile ms 90.0, "ms");
         ("op_p99_ms", Stats.percentile ms 99.0, "ms");
         ("op_cpu_ms", op_cpu_s /. float_of_int (List.length ms) *. 1000.0, "ms");
         ("unattributed_ms", op_ms -. self_ms, "ms");
         ("trace_overhead_pct", overhead_pct, "%");
         ("peak_rss_mb", float_of_int peak_rss_kb *. 1024.0 /. 1e6, "MB");
       ])
