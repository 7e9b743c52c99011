(* Workload [query]: the daemon's read path (see [Serving]) on the
   10k-cell design. One op is one cached-read request. *)

let setups = 5

(* p99 needs at least a thousand requests. *)
let min_requests = 1000

(* Requests per connection in the traced run. *)
let traced_requests = 500

(* Probes of the other layer groups on this design: analysis-flow
   replays, and what-if ops. *)
let flow_replays = 3

let eco_ops = 20

let run env =
  let setup_s, d, (ok, replies), others = Wire.setup env ~times:setups ~warm:Serving.warm in
  let tally = Outcome.tally () in
  Outcome.check tally ~why:"warm-up reply differs from the reference" ok;
  let start = Proc.now () in
  let per_conn = min_requests / Serving.connections in
  let stop n =
    let t = Proc.now () -. start in
    (n >= per_conn && t >= env.Env.seconds) || t >= env.Env.seconds +. 90.0
  in
  let samples, wall = Serving.drive env (d.Wire.first :: others) ~replies ~stop in
  Wire.stop d others;
  Serving.tally_samples tally samples;
  Ledger.end_to_end tally ~setup_s
    ~op_s:(List.map (fun s -> s.Serving.seconds) samples)
    ~ops_per_s:(float_of_int (List.length samples) /. wall)

let run_traced env =
  let _, d, (ok, replies), others = Wire.setup env ~times:1 ~warm:Serving.warm in
  let tally = Outcome.tally () in
  Outcome.check tally ~why:"warm-up reply differs from the reference" ok;
  let serving = Serving.run env tally d replies others ~requests:traced_requests in
  let reference = Seeded.read_reference env.Env.dir in
  let flow, _ =
    Flow.rows (Flow.replays env tally reference ~daemon:true flow_replays)
  in
  let eco = Eco.run env ~ops:eco_ops ~plain:false in
  Ledger.traced tally ~flow ~eco:eco.Eco.rows ~serving:serving.Serving.rows
    ~op_s:(List.map (fun s -> s.Serving.seconds) serving.Serving.samples)
    ~op_cpu_s:serving.Serving.daemon_cpu_s ~self_ms:serving.Serving.self_ms
    ~overhead_pct:serving.Serving.overhead_pct ~peak_rss_kb:serving.Serving.peak_rss_kb
