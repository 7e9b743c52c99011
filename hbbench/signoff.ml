(* Workload [signoff]: batch sign-off from bytes in to bytes out. One op
   is one child [hummingbird analyse --json --paths 5] on the 100k-cell
   seeded design; exit code 2 is expected (the design has a slow
   pocket). *)

(* Designs set up per run; ops cycle through them. *)
let designs = 4

let min_ops = 8

(* Fresh-process ops the traced run makes on each side. *)
let traced_ops = 3

(* Probes of the other layer groups on this design: what-if ops, and
   read requests per connection. *)
let eco_ops = 8

let serving_requests = 25

let report_path env = Filename.concat env.Env.dir "report.json"

let cli_op env =
  Proc.run ~stdout_path:(report_path env) env.Env.bin
    [ "analyse"; "-n"; Seeded.hbn env.Env.dir; "-c"; Seeded.hbc env.Env.dir;
      "--json"; "--paths"; "5" ]

let checked_op env tally reference =
  let r = cli_op env in
  let why =
    match Flow.check_report reference ~code:r.Proc.code (Proc.read_file (report_path env)) with
    | Ok () -> ""
    | Error e -> e
  in
  Outcome.check tally ~why (why = "");
  r

(* The set-up's own check, counted as one op. *)
let reference_ok tally (reference : Seeded.reference) =
  Outcome.check tally ~why:"engine and exhaustive oracle disagree at set-up"
    (reference.Seeded.oracle <> "disagrees")

let run env =
  let envs = Array.init designs (Env.design env) in
  let setup_s =
    Stats.median
      (Array.to_list (Array.map (fun e -> Env.setup_child e Seeded.Signoff) envs))
  in
  let references = Array.map (fun e -> Seeded.read_reference e.Env.dir) envs in
  let tally = Outcome.tally () in
  Array.iter (reference_ok tally) references;
  let runs = ref [] in
  let start = Proc.now () in
  Env.repeat env ~min_ops (fun n ->
      let k = n mod designs in
      runs := checked_op envs.(k) tally references.(k) :: !runs);
  let wall = Proc.now () -. start in
  Ledger.end_to_end tally ~setup_s
    ~op_s:(List.map (fun r -> r.Proc.wall_s) !runs)
    ~ops_per_s:(float_of_int (List.length !runs) /. wall)

let run_traced env =
  let _ : float = Env.setup_child env Seeded.Signoff in
  let reference = Seeded.read_reference env.Env.dir in
  let tally = Outcome.tally () in
  reference_ok tally reference;
  (* CLI op and traced replay alternate, so drift hits both sides. *)
  let flow = Flow.create () in
  let cli =
    List.init traced_ops (fun _ ->
        let r = checked_op env tally reference in
        Flow.replay env flow tally reference ~daemon:false;
        r)
  in
  let flow_rows, self_ms = Flow.rows flow in
  let eco = Eco.run env ~ops:eco_ops ~plain:false in
  (* Hand the what-if session's heap back before the read-path probe
     loads the 100k design again, in the daemon and in this process. *)
  Gc.compact ();
  let d, ok, replies, others = Serving.start env in
  Outcome.check tally ~why:"probe daemon's warm-up reply differs from the reference" ok;
  let serving = Serving.run env tally d replies others ~requests:serving_requests in
  let op_s = List.map (fun r -> r.Proc.wall_s) cli in
  Ledger.traced tally ~flow:flow_rows ~eco:eco.Eco.rows ~serving:serving.Serving.rows ~op_s
    ~op_cpu_s:(List.fold_left (fun s r -> s +. r.Proc.cpu_s) 0.0 cli)
    ~self_ms
    ~overhead_pct:(((Stats.mean flow.Flow.walls /. Stats.mean op_s) -. 1.0) *. 100.0)
    ~peak_rss_kb:
      (int_of_float (Stats.median (List.map (fun r -> float_of_int r.Proc.peak_rss_kb) cli)))
