(* The analysis flow: what one CLI [analyse --json --paths 5] computes,
   replayed in a fresh process with one public call per layer, each
   inside a span. On the sign-off workload this is the op; on the serve
   designs it is the work the daemon's load and warm-up do, so there its
   rows can move only [setup_s]. *)

open Hb_sta

let layers =
  [ "netlist.parse"; "sta.preprocess"; "sta.algorithm1"; "sta.holdcheck";
    "sta.algorithm2"; "sta.paths"; "sta.render" ]

(* [sta.render] re-traces the same five paths inside [Json_export]; the
   [sta.paths] probe measures that share, so render's self time excludes
   it and the probe's own duration is not part of the op. *)
let self_minus = function "sta.render" -> [ "sta.paths" ] | _ -> []

let count_names = [ "sta.clusters"; "sta.relax_cycles"; "sta.clusters_evaluated" ]

(* The report must carry the reference's verdict, rendered worst slack
   and slow-endpoint count, and the exit code (when [code >= 0]) must
   match the verdict. *)
let check_report (reference : Seeded.reference) ~code text =
  let open Hb_util.Json in
  match parse_result text with
  | Error e -> Error ("unparseable report: " ^ e)
  | Ok json ->
    let verdict = Option.bind (member "verdict" json) to_text in
    let worst = Option.bind (member "worst_slack" json) to_float in
    let slow =
      match member "endpoints" json with
      | Some (List l) ->
        List.length
          (List.filter
             (fun e ->
               match Option.bind (member "slack" e) to_float with
               | Some s -> s <= 0.0
               | None -> false)
             l)
      | _ -> -1
    in
    let want_code = if reference.Seeded.verdict = "slow_paths" then 2 else 0 in
    if verdict <> Some reference.Seeded.verdict then Error "verdict differs"
    else if
      match worst with
      | Some w -> Int64.bits_of_float w <> Int64.bits_of_float reference.Seeded.worst
      | None -> true
    then Error "worst slack differs"
    else if slow <> reference.Seeded.slow then
      Error (Printf.sprintf "slow endpoints %d, reference %d" slow reference.Seeded.slow)
    else if code >= 0 && code <> want_code then
      Error (Printf.sprintf "exit code %d, expected %d" code want_code)
    else Ok ()

(* The body of [--replay-flow]: the flow in this fresh process, on a
   session configured as the CLI ([daemon = false]) or the daemon
   configures one. Writes the report to [report] and the spans and
   counts to [out]. *)
let replay_child ~daemon ~dir ~report ~out =
  Hb_util.Telemetry.set_enabled true;
  Hb_util.Telemetry.reset ();
  let spans = Spans.create () in
  let span name f = fst (Spans.span spans name f) in
  let design =
    span "netlist.parse" (fun () ->
        Hb_netlist.Hbn_format.parse ~library:Seeded.library
          (Proc.read_file (Seeded.hbn dir)))
  in
  let system = Hb_clock.System.parse_file (Seeded.hbc dir) in
  let config = if daemon then Seeded.daemon_config else Config.default in
  let session =
    span "sta.preprocess" (fun () -> Session.create ~design ~system ~config ())
  in
  let clusters = Array.length (Session.context session).Context.table.Cluster.clusters in
  let evaluated0 = Spans.counter "slacks.clusters_evaluated" in
  let first =
    span "sta.algorithm1" (fun () ->
        Session.analyse ~generate_constraints:false ~check_hold:false session)
  in
  let evaluated = Spans.counter "slacks.clusters_evaluated" - evaluated0 in
  let outcome = first.Session.outcome in
  let _ : Holdcheck.violation list = span "sta.holdcheck" (fun () -> Session.hold session) in
  let _ : Algorithm2.constraint_times =
    span "sta.algorithm2" (fun () -> Session.constraints session)
  in
  let _ : Paths.path list =
    span "sta.paths" (fun () -> Session.worst_paths session ~limit:5)
  in
  let text = span "sta.render" (fun () -> Json_export.report ~paths:5 (Session.analyse session)) in
  Proc.write_file report text;
  let b = Buffer.create 512 in
  Hashtbl.iter
    (fun name (a : Spans.acc) ->
      Printf.bprintf b "span %s %h %h %h %d\n" name a.Spans.wall_s a.Spans.cpu_s
        a.Spans.words a.Spans.calls)
    spans;
  List.iter2 (Printf.bprintf b "count %s %d\n") count_names
    [ clusters;
      outcome.Algorithm1.forward_cycles + outcome.Algorithm1.backward_cycles;
      evaluated ];
  Proc.write_file out (Buffer.contents b)

(* The replays of one traced run: their spans, their work counts (which
   must repeat exactly) and their wall times without the probe. *)
type t = {
  spans : Spans.t;
  mutable counts : (string * float) list;
  mutable walls : float list;
}

let create () = { spans = Spans.create (); counts = []; walls = [] }

(* One replay child on the run's design, checked as one op. *)
let replay env t tally reference ~daemon =
  let dir = env.Env.dir in
  let report = Filename.concat dir "replay-report.json" in
  let out = Filename.concat dir (Printf.sprintf "replay-%d.txt" (List.length t.walls)) in
  let r =
    Proc.run
      ~stdout_path:(Filename.concat dir "replay.log")
      env.Env.self
      ([ "--replay-flow"; "--dir"; dir; "--report"; report; "--out"; out ]
       @ if daemon then [ "--daemon" ] else [])
  in
  let these = ref [] and probe_s = ref 0.0 in
  if r.Proc.code = 0 then
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "span"; name; wall; cpu; words; calls ] ->
          let wall_s = float_of_string wall in
          if name = "sta.paths" then probe_s := wall_s;
          Spans.add t.spans name ~wall_s ~cpu_s:(float_of_string cpu)
            ~words:(float_of_string words) ~calls:(int_of_string calls)
        | [ "count"; name; v ] -> these := (name, float_of_string v) :: !these
        | _ -> ())
      (String.split_on_char '\n' (Proc.read_file out));
  let these = List.rev !these in
  if t.counts = [] then t.counts <- these;
  let why =
    if r.Proc.code <> 0 then Printf.sprintf "replay exited %d" r.Proc.code
    else if t.counts <> these then "work counts differ between replays"
    else
      match check_report reference ~code:(-1) (Proc.read_file report) with
      | Ok () -> ""
      | Error e -> "replay: " ^ e
  in
  Outcome.check tally ~why (why = "");
  t.walls <- (r.Proc.wall_s -. !probe_s) :: t.walls

(* [n] replays back to back (the serve designs' set-up layers). *)
let replays env tally reference ~daemon n =
  let t = create () in
  for _ = 1 to n do replay env t tally reference ~daemon done;
  t

(* The layer rows and counts, per replay, and the summed self wall time
   in ms. *)
let rows t =
  let ops = max 1 (List.length t.walls) in
  let self_ms =
    List.fold_left
      (fun s l -> s +. Spans.self_ms t.spans ~ops ~self_minus:(self_minus l) l)
      0.0 layers
  in
  ( List.concat_map (fun l -> Spans.rows t.spans ~ops ~self_minus:(self_minus l) l) layers
    @ List.map
        (fun n -> (n, Option.value ~default:0.0 (List.assoc_opt n t.counts), "count"))
        count_names,
    self_ms )
