(* Child processes: spawning the real binaries, reaping them with their
   own resource usage, and the small filesystem chores around them. *)

external wait4 : int -> int * float * int = "hbbench_wait4"

type exit = {
  code : int;        (** exit code, or 128 + signal *)
  wall_s : float;    (** spawn to reaped *)
  cpu_s : float;     (** the child's user + system time *)
  peak_rss_kb : int; (** the child's peak resident set (VmHWM) *)
}

let now = Unix.gettimeofday

(* Every child we start, so an exception or exit on any path still
   kills and reaps them. *)
let live : int list ref = ref []

let spawn ?(stdout = Unix.stdout) prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout
      Unix.stderr
  in
  live := pid :: !live;
  pid

let reap pid =
  let code, cpu_s, peak_rss_kb = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  (code, cpu_s, peak_rss_kb)

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid : int * float * int) with Failure _ -> ())
    !live

let () = at_exit kill_all

(* Run [prog args] to completion with stdout sent to [stdout_path]. *)
let run ~stdout_path prog args =
  let fd =
    Unix.openfile stdout_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let start = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        spawn ~stdout:fd prog args)
  in
  let code, cpu_s, peak_rss_kb = reap pid in
  { code; wall_s = now () -. start; cpu_s; peak_rss_kb }

(* VmHWM of a live process, from procfs. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc status"
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" Fun.id
        | _ -> scan ()
      in
      scan ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* User + system seconds of a live process so far, from procfs (the
   fields count USER_HZ = 100 ticks a second). *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name, which may hold spaces. *)
  let rest = String.sub stat (String.rindex stat ')' + 2)
      (String.length stat - String.rindex stat ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt
    :: _cminflt :: _majflt :: _cmajflt :: utime :: stime :: _ ->
    float_of_string utime /. 100.0 +. float_of_string stime /. 100.0
  | _ -> failwith "short /proc stat line"
