(* The daemon side: start [hummingbird serve --socket] with default
   flags, talk newline-delimited JSON to it, read its peak RSS and shut
   it down. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception e ->
    Unix.close fd;
    raise e

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* One request line out, one reply line back. *)
let call conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  input_line conn.ic

type reply = Reply of Hb_util.Json.t | Failed of string

let parse_reply line =
  match Hb_util.Json.parse_result line with
  | Error e -> Failed ("unparseable reply: " ^ e)
  | Ok json ->
    (match Hb_util.Json.member "status" json with
     | Some (Hb_util.Json.String "ok") ->
       (match Hb_util.Json.member "result" json with
        | Some r -> Reply r
        | None -> Failed "ok reply without result")
     | _ -> Failed line)

let number field json =
  match Hb_util.Json.member field json with
  | Some v -> Hb_util.Json.to_float v
  | None -> None

(* The worst slack of an ok [analyse] reply. *)
let worst_slack reply =
  match parse_reply reply with
  | Reply r -> number "worst_slack" r
  | Failed _ -> None

(* Bytes of an encoded analyse reply before its ["timings"] member:
   the timing values printed there vary in length from run to run, the
   rest is fixed by the design and the edits. *)
let reply_bytes reply =
  let key = {|"timings":|} in
  let n = String.length key in
  let rec find i =
    if i + n > String.length reply then String.length reply
    else if String.sub reply i n = key then i
    else find (i + 1)
  in
  find 0

type daemon = { pid : int; socket : string; dir : string; first : conn }

let load_line dir =
  Printf.sprintf {|{"id":0,"method":"load","params":{"netlist":"%s","clocks":"%s"}}|}
    (Seeded.hbn dir) (Seeded.hbc dir)

(* Start the daemon, wait for its socket, and load the design on a
   first connection. *)
let start ~bin ~dir =
  let socket = Filename.concat dir "serve.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Proc.spawn ~stdout:log bin [ "serve"; "--socket"; socket ])
  in
  let deadline = Proc.now () +. 60.0 in
  let rec first_conn () =
    match connect socket with
    | conn -> conn
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Proc.now () < deadline ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> Unix.sleepf 0.005; first_conn ()
       | _ -> failwith "serve daemon exited before listening")
  in
  let first = first_conn () in
  let d = { pid; socket; dir; first } in
  (match parse_reply (call first (load_line dir)) with
   | Reply _ -> ()
   | Failed e -> failwith ("load failed: " ^ e));
  d

(* A further client connection, bound to the resident session of the
   design in [dir] (by default the first connection's). *)
let attach ?dir d =
  let conn = connect d.socket in
  (match parse_reply (call conn (load_line (Option.value dir ~default:d.dir))) with
   | Reply _ -> ()
   | Failed e -> failwith ("load failed: " ^ e));
  conn

let peak_rss_kb d = Proc.vm_hwm_kb d.pid

(* [shutdown] on the first connection, close the rest, and wait for
   the process to exit (killing it after 30 s). *)
let stop d others =
  (try ignore (call d.first {|{"id":9,"method":"shutdown"}|} : string)
   with End_of_file | Sys_error _ -> ());
  List.iter close (d.first :: others);
  let deadline = Proc.now () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Proc.now () < deadline -> Unix.sleepf 0.01; wait ()
    | 0, _ -> Unix.kill d.pid Sys.sigkill; ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  Proc.live := List.filter (( <> ) d.pid) !Proc.live

(* Full daemon set-up, [times] times, each on another of the run's
   designs and the last on design 0 (the run's seed): the seeded design
   and reference in a child, daemon start, load, and [warm], which sends
   the warm-up requests and checks them against the reference. The last
   daemon stays up. Returns the median set-up seconds, the daemon,
   [warm]'s result and the extra connections it opened. *)
let setup env ~times ~warm =
  let rec go k samples =
    let t0 = Proc.now () in
    let _ : float =
      Env.setup_child { env with Env.seed = Seeded.design_seed ~seed:env.Env.seed (k - 1) }
        Seeded.Serve
    in
    let reference = Seeded.read_reference env.Env.dir in
    let d = start ~bin:env.Env.bin ~dir:env.Env.dir in
    let result, conns = warm d reference in
    let samples = (Proc.now () -. t0) :: samples in
    if k = 1 then (Stats.median samples, d, result, conns)
    else begin
      stop d conns;
      go (k - 1) samples
    end
  in
  go times []
