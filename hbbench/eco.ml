(* The what-if loop in-process: the seeded edit stream on a session
   configured as the daemon configures one. Each op is an edit batch
   ([edit.apply]), the incremental re-analysis ([sta.reanalyse]) and the
   analyse reply's build ([serve.encode]: the report with its five worst
   paths, parsed and re-encoded into the reply line). On the whatif
   workload this is the op; elsewhere it is a probe of the same layers
   on that workload's design. *)

open Hb_sta

let layers = [ "edit.apply"; "sta.reanalyse"; "serve.encode" ]

let encode s =
  Hb_util.Json.to_string
    (Hb_util.Json.parse
       (Json_export.report ~paths:5
          (Session.analyse ~generate_constraints:false ~check_hold:false s)))

type t = {
  rows : (string * float * string) list;
  self_ms : float;        (** summed layer self wall time per op *)
  overhead_pct : float;   (** traced vs plain op time; nan without [plain] *)
}

(* [ops] ops of the seeded stream. With [plain], a second session runs
   each op untraced first (the other side of the tracing overhead). *)
let run env ~ops ~plain =
  let dir = env.Env.dir in
  let traced = Seeded.daemon_session dir in
  let plain_session = if plain then Some (Seeded.daemon_session dir) else None in
  ignore (encode traced : string);
  Option.iter (fun s -> ignore (encode s : string)) plain_session;
  let stream = Seeded.whatif_stream ~seed:env.Env.seed (Seeded.read_candidates dir) in
  Hb_util.Telemetry.reset ();
  let spans = Spans.create () in
  let span name f = fst (Spans.span spans name f) in
  let plain_s = ref 0.0 and traced_s = ref 0.0 in
  let rebuilt = ref 0 and invalidated = ref 0 and hits = ref 0 and evaluated = ref 0
  and bytes = ref 0 in
  for _ = 1 to ops do
    let edits = List.map Seeded.command_edit (stream ()) in
    Option.iter
      (fun s ->
        Hb_util.Telemetry.set_enabled false;
        let t0 = Proc.now () in
        ignore (Session.apply s edits : Session.apply_result);
        ignore (encode s : string);
        plain_s := !plain_s +. (Proc.now () -. t0))
      plain_session;
    Hb_util.Telemetry.set_enabled true;
    let t0 = Proc.now () in
    let applied = span "edit.apply" (fun () -> Session.apply traced edits) in
    let hits0 = Spans.counter "slacks.cluster_cache_hits" in
    let evaluated0 = Spans.counter "slacks.clusters_evaluated" in
    let _ : Session.report =
      span "sta.reanalyse" (fun () ->
          Session.analyse ~generate_constraints:false ~check_hold:false traced)
    in
    hits := !hits + Spans.counter "slacks.cluster_cache_hits" - hits0;
    evaluated := !evaluated + Spans.counter "slacks.clusters_evaluated" - evaluated0;
    let reply = span "serve.encode" (fun () -> encode traced) in
    traced_s := !traced_s +. (Proc.now () -. t0);
    rebuilt := !rebuilt + applied.Session.clusters_rebuilt;
    invalidated := !invalidated + applied.Session.clusters_invalidated;
    bytes := !bytes + Wire.reply_bytes reply
  done;
  Hb_util.Telemetry.set_enabled false;
  Session.close traced;
  Option.iter Session.close plain_session;
  let self_ms =
    List.fold_left (fun s l -> s +. Spans.self_ms spans ~ops l) 0.0 layers
  in
  { rows =
      List.concat_map (Spans.rows spans ~ops) layers
      @ [ ("edit.clusters_rebuilt", float_of_int !rebuilt, "count");
          ("edit.clusters_invalidated", float_of_int !invalidated, "count");
          ( "sta.cache_hit_ratio",
            float_of_int !hits /. float_of_int (max 1 (!hits + !evaluated)),
            "ratio" );
          ("serve.reply_bytes", float_of_int !bytes /. float_of_int ops, "bytes");
        ];
    self_ms;
    overhead_pct = (if plain then (!traced_s /. !plain_s -. 1.0) *. 100.0 else Float.nan);
  }
