(* The daemon's read path: a seeded stream of cached reads from two
   connections at zero think time (closed loop), drawn uniformly from
   [analyse {"paths":5}], [paths {"limit":5}], [constraints] and [hold].
   It sends no writes, so Algorithm 1 does no work; the stream exercises
   transport, the scheduler queue, the read lock, the handler and reply
   encoding. The same stream then runs through the daemon's layers
   in-process. On the query workload this is the op; elsewhere it is a
   probe of the same layers on that workload's design. *)

open Hb_sta

let connections = 2

let methods = Seeded.query_methods

let lines = Array.map Seeded.query_line methods

let ping_line = {|{"id":5,"method":"ping"}|}

(* Round trips of the cheapest request, for the transport row. *)
let pings = 200

(* Warm-up: every method once (the first analyse fills the caches), all
   ok, the analyse reply's worst slack equal to the reference; then the
   second connection. Returns the warm-up reply of each method. *)
let warm d (reference : Seeded.reference) =
  let replies = Array.map (Wire.call d.Wire.first) lines in
  let ok =
    Array.for_all
      (fun r -> match Wire.parse_reply r with Wire.Reply _ -> true | Wire.Failed _ -> false)
      replies
    && (match Wire.worst_slack replies.(0) with
        | Some w -> Seeded.same_bits w reference.Seeded.worst
        | None -> false)
    && reference.Seeded.oracle <> "disagrees"
  in
  let others = List.init (connections - 1) (fun _ -> Wire.attach d) in
  ((ok, replies), others)

(* Analyse replies embed the daemon's peak RSS, sampled per reply; that
   one gauge is masked before replies are compared byte for byte. *)
let masked reply =
  let key = {|"peak_rss_bytes":|} in
  let rec find i =
    if i + String.length key > String.length reply then reply
    else if String.sub reply i (String.length key) = key then begin
      let j = ref (i + String.length key) in
      while !j < String.length reply && reply.[!j] >= '0' && reply.[!j] <= '9' do incr j done;
      String.sub reply 0 (i + String.length key) ^ "#"
      ^ String.sub reply !j (String.length reply - !j)
    end
    else find (i + 1)
  in
  find 0

let same a b = String.equal (masked a) (masked b)

type sample = { meth : int; seconds : float; same : bool }

(* Each connection on its own domain, sending its seeded stream until
   [stop n] (n = requests sent so far on that connection). *)
let drive env conns ~replies ~stop =
  let run k conn =
    let next = Seeded.query_stream ~seed:env.Env.seed ~conn:k in
    let rec loop n acc =
      if stop n then acc
      else begin
        let meth = next () in
        let t0 = Proc.now () in
        let reply = Wire.call conn lines.(meth) in
        let seconds = Proc.now () -. t0 in
        loop (n + 1) ({ meth; seconds; same = same reply replies.(meth) } :: acc)
      end
    in
    loop 0 []
  in
  let t0 = Proc.now () in
  let domains = List.mapi (fun k c -> Domain.spawn (fun () -> run k c)) conns in
  let samples = List.concat_map Domain.join domains in
  (samples, Proc.now () -. t0)

let tally_samples tally samples =
  List.iter
    (fun s -> Outcome.check tally ~why:"reply differs from the warm-up reply" s.same)
    samples

(* A daemon started on the run's design and warmed up (no set-up child:
   the design and reference are already written). *)
let start env =
  let d = Wire.start ~bin:env.Env.bin ~dir:env.Env.dir in
  let (ok, replies), others = warm d (Seeded.read_reference env.Env.dir) in
  (d, ok, replies, others)

type t = {
  rows : (string * float * string) list;
  samples : sample list;  (** the socket requests *)
  wall_s : float;         (** wall time of the socket stream *)
  daemon_cpu_s : float;   (** the daemon's cpu time over the stream *)
  peak_rss_kb : int;      (** the daemon's VmHWM after the stream *)
  self_ms : float;        (** per request: in-process submit + transport *)
  overhead_pct : float;   (** traced vs plain handler time *)
}

let name m = "serve." ^ methods.(m)

(* [requests] per connection through the warmed daemon [d], which is
   stopped on return, then the same streams through the daemon's layers
   in-process: [Serve.handle_line] (plain, then inside a span),
   [Serve.submit] through a scheduler with the daemon's worker count,
   one domain per connection. Transport is the ping round trip over the
   socket less the ping's in-process submit. *)
let run env tally (d : Wire.daemon) replies others ~requests =
  let cpu0 = Proc.cpu_s d.Wire.pid in
  let samples, wall_s =
    drive env (d.Wire.first :: others) ~replies ~stop:(fun n -> n >= requests)
  in
  let daemon_cpu_s = Proc.cpu_s d.Wire.pid -. cpu0 in
  let ping_socket = ref 0.0 in
  for _ = 1 to pings do
    let t0 = Proc.now () in
    let reply = Wire.call d.Wire.first ping_line in
    ping_socket := !ping_socket +. (Proc.now () -. t0);
    Outcome.check tally ~why:"ping reply not ok"
      (match Wire.parse_reply reply with Wire.Reply _ -> true | Wire.Failed _ -> false)
  done;
  let peak_rss_kb = Wire.peak_rss_kb d in
  Wire.stop d others;
  tally_samples tally samples;
  let n = Array.length methods in
  let count = Array.make n 0 in
  List.iter (fun s -> count.(s.meth) <- count.(s.meth) + 1) samples;
  let streams =
    List.init connections (fun k ->
        let next = Seeded.query_stream ~seed:env.Env.seed ~conn:k in
        List.init requests (fun _ -> next ()))
  in
  let t = Serve.create () in
  let sched =
    Serve.start_scheduler t ~workers:(Hb_util.Pool.recommended_jobs ())
      ~queue_capacity:Config.default.Config.serve_queue
  in
  let clients = List.init connections (fun _ -> Serve.client t) in
  List.iter
    (fun c -> ignore (Serve.submit sched c (Wire.load_line env.Env.dir) : string))
    clients;
  let c0 = List.hd clients in
  (* Analyse replies carry this process's timings, so in-process replies
     are checked against in-process warm-up replies. *)
  let local = Array.map (Serve.submit sched c0) lines in
  Hb_util.Telemetry.reset ();
  let spans = Spans.create () in
  let plain = ref 0.0 and traced = ref 0.0 in
  List.iter
    (fun m ->
      Hb_util.Telemetry.set_enabled false;
      let t0 = Proc.now () in
      ignore (Serve.handle_line ~client:c0 t lines.(m) : string);
      plain := !plain +. (Proc.now () -. t0);
      Hb_util.Telemetry.set_enabled true;
      let reply, dt =
        Spans.span spans (name m ^ ".handle") (fun () ->
            Serve.handle_line ~client:c0 t lines.(m))
      in
      traced := !traced +. dt;
      Outcome.check tally ~why:"in-process reply differs from its warm-up reply"
        (same reply local.(m)))
    (List.concat streams);
  Hb_util.Telemetry.set_enabled false;
  let submitted =
    List.map2
      (fun c stream ->
        Domain.spawn (fun () ->
            let mine = Spans.create () in
            List.iter
              (fun m ->
                ignore (Spans.span mine (name m ^ ".submit") (fun () ->
                    Serve.submit sched c lines.(m)) : string * float))
              stream;
            mine))
      clients streams
    |> List.map Domain.join
  in
  let ping_submit = ref 0.0 in
  for _ = 1 to pings do
    ping_submit := !ping_submit +. snd (Spans.span spans "serve.ping" (fun () ->
        Serve.submit sched c0 ping_line))
  done;
  Serve.stop_scheduler sched;
  Serve.shutdown_sessions t;
  List.iter
    (fun (mine : Spans.t) ->
      Hashtbl.iter
        (fun k (a : Spans.acc) ->
          Spans.add spans k ~wall_s:a.Spans.wall_s ~cpu_s:a.Spans.cpu_s
            ~words:a.Spans.words ~calls:a.Spans.calls)
        mine)
    submitted;
  let transport_ms = (!ping_socket -. !ping_submit) /. float_of_int pings *. 1000.0 in
  let total = List.length samples in
  let rows = ref [] and submitted_ms = ref 0.0 in
  for m = n - 1 downto 0 do
    let ops = max 1 count.(m) in
    let mean key = Spans.wall spans (name m ^ key) /. float_of_int ops *. 1000.0 in
    let handle = mean ".handle" and submit = mean ".submit" in
    submitted_ms := !submitted_ms +. (float_of_int count.(m) *. submit);
    rows :=
      Spans.rows spans ~ops (name m ^ ".handle")
      @ [ (name m ^ ".submit_ms", submit, "ms");
          (name m ^ ".queue_ms", submit -. handle, "ms") ]
      @ !rows
  done;
  { rows = !rows @ [ ("serve.transport_ms", transport_ms, "ms") ];
    samples;
    wall_s;
    daemon_cpu_s;
    peak_rss_kb;
    self_ms = (!submitted_ms /. float_of_int (max 1 total)) +. transport_ms;
    overhead_pct = (!traced /. !plain -. 1.0) *. 100.0;
  }
