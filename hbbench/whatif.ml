(* Workload [whatif]: the paper's Section 8 loop against one daemon,
   one request outstanding at a time. One op is an [edit] batch of four
   seeded commands followed by an [analyse] of the five worst paths, on
   one design's connection; its time runs from sending the edit to
   receiving the analyse reply. *)

open Hb_sta

(* Designs per run. Ops cycle through them, each design loaded on its
   own connection (its own session), one request outstanding at a time:
   how long a re-analysis relaxes depends on the design, so one design
   would let the seed decide the run's figures. *)
let designs = 4

let setups = 3

let min_ops = 100

(* Ops in the traced run (on design 0), on each side. *)
let traced_ops = 100

(* Probes of the other layer groups on this design: analysis-flow
   replays, and read requests per connection. *)
let flow_replays = 3

let serving_requests = 100

let analyse_line =
  {|{"id":11,"method":"analyse","params":{"paths":5,"constraints":false,"hold":false}}|}

let edit_line commands =
  Printf.sprintf {|{"id":10,"method":"edit","params":{"commands":[%s]}}|}
    (String.concat "," (List.map Seeded.command_json commands))

type setup = { d : Wire.daemon; envs : Env.t array; conns : Wire.conn array }

(* One full set-up: the designs and their references generated in
   children, the daemon started, each design loaded on its own
   connection, and its first analysis checked against its reference. *)
let setup_once env tally ~designs =
  let envs = Array.init designs (Env.design env) in
  Array.iter (fun e -> ignore (Env.setup_child e Seeded.Serve : float)) envs;
  let d = Wire.start ~bin:env.Env.bin ~dir:envs.(0).Env.dir in
  let conns =
    Array.mapi (fun k e -> if k = 0 then d.Wire.first else Wire.attach ~dir:e.Env.dir d) envs
  in
  Array.iteri
    (fun k e ->
      let reference = Seeded.read_reference e.Env.dir in
      let ok =
        match Wire.worst_slack (Wire.call conns.(k) analyse_line) with
        | Some w -> Seeded.same_bits w reference.Seeded.worst
        | None -> false
      in
      Outcome.check tally ~why:"warm-up reply differs from the reference"
        (ok && reference.Seeded.oracle <> "disagrees"))
    envs;
  { d; envs; conns }

let stop s = Wire.stop s.d (List.tl (Array.to_list s.conns))

(* [times] full set-ups; the last stays up. Returns the median set-up
   seconds and the last set-up. *)
let setup env tally ~designs ~times =
  let rec go k samples =
    let t0 = Proc.now () in
    let s = setup_once env tally ~designs in
    let samples = (Proc.now () -. t0) :: samples in
    if k = 1 then (Stats.median samples, s)
    else begin
      stop s;
      go (k - 1) samples
    end
  in
  go times []

(* One op over the socket: edit, then analyse. Returns the latency and
   the reply's worst slack when both replies are well-formed. *)
let socket_op conn commands =
  let t0 = Proc.now () in
  let edit = Wire.call conn (edit_line commands) in
  let analyse = Wire.call conn analyse_line in
  let dt = Proc.now () -. t0 in
  let applied =
    match Wire.parse_reply edit with
    | Wire.Reply r -> Wire.number "applied" r = Some 4.0
    | Wire.Failed _ -> false
  in
  (dt, if applied then Wire.worst_slack analyse else None)

(* The last reply's worst slack must equal, bit for bit, a fresh
   in-process analysis of the design with every logged edit applied. *)
let check_final env tally log last =
  let s = Seeded.daemon_session env.Env.dir in
  List.iter (fun batch -> ignore (Session.apply s (List.map Seeded.command_edit batch)
                                  : Session.apply_result))
    (List.rev log);
  Session.invalidate s;
  let report = Session.analyse ~generate_constraints:false ~check_hold:false s in
  let fresh = Seeded.rendered report.Session.outcome.Algorithm1.final.Slacks.worst in
  Session.close s;
  match last with
  | Some w when not (Seeded.same_bits w fresh) ->
    Outcome.fail_counted tally "last worst slack differs from a fresh analysis"
  | Some _ | None -> ()  (* [None]: the op already counted as failed *)

(* Drive [ops] (or, with [ops = 0], the run length) socket ops, cycling
   through the designs; returns latencies in seconds and the stream's
   wall seconds. *)
let drive env s tally ~ops =
  let n = Array.length s.envs in
  let streams =
    Array.map
      (fun e -> Seeded.whatif_stream ~seed:e.Env.seed (Seeded.read_candidates e.Env.dir))
      s.envs
  in
  let logs = Array.make n [] and last = Array.make n None and lat = ref [] in
  let op i =
    let k = i mod n in
    let commands = streams.(k) () in
    let dt, worst = socket_op s.conns.(k) commands in
    logs.(k) <- commands :: logs.(k);
    last.(k) <- worst;
    lat := dt :: !lat;
    Outcome.check tally ~why:"edit or analyse reply not ok" (worst <> None)
  in
  let start = Proc.now () in
  if ops > 0 then for i = 0 to ops - 1 do op i done
  else Env.repeat env ~min_ops op;
  let wall = Proc.now () -. start in
  Array.iteri (fun k e -> check_final e tally logs.(k) last.(k)) s.envs;
  (!lat, wall)

let run env =
  let tally = Outcome.tally () in
  let setup_s, s = setup env tally ~designs ~times:setups in
  let lat, wall = drive env s tally ~ops:0 in
  stop s;
  Ledger.end_to_end tally ~setup_s ~op_s:lat
    ~ops_per_s:(float_of_int (List.length lat) /. wall)

let run_traced env =
  let tally = Outcome.tally () in
  let _, s = setup env tally ~designs:1 ~times:1 in
  let cpu0 = Proc.cpu_s s.d.Wire.pid in
  let lat, _ = drive env s tally ~ops:traced_ops in
  let op_cpu_s = Proc.cpu_s s.d.Wire.pid -. cpu0 in
  let peak_rss_kb = Wire.peak_rss_kb s.d in
  stop s;
  let env = s.envs.(0) in
  let reference = Seeded.read_reference env.Env.dir in
  let flow, _ =
    Flow.rows (Flow.replays env tally reference ~daemon:true flow_replays)
  in
  (* The same op stream in-process, op by op on two sessions: one plain,
     one with a span around each layer's call. *)
  let eco = Eco.run env ~ops:traced_ops ~plain:true in
  let d, ok, replies, others = Serving.start env in
  Outcome.check tally ~why:"probe daemon's warm-up reply differs from the reference" ok;
  let serving = Serving.run env tally d replies others ~requests:serving_requests in
  Ledger.traced tally ~flow ~eco:eco.Eco.rows ~serving:serving.Serving.rows ~op_s:lat
    ~op_cpu_s ~self_ms:eco.Eco.self_ms ~overhead_pct:eco.Eco.overhead_pct ~peak_rss_kb
