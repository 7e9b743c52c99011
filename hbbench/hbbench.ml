(* The benchmark's entry point.

     hbbench --workload signoff|whatif|query --seed N --seconds S --trace 0|1

   runs one workload against the hummingbird binary built in this
   checkout and prints one JSON result as its last line of output:
   end-to-end metrics with --trace 0, per-layer metrics from the traced
   replay with --trace 1. Run it from the checkout root (hbbench/run.sh
   builds and runs it). Two internal modes run in child processes:
   --setup-child (generate a seeded design and its reference answer)
   and --replay-flow (the analysis flow, traced, in a fresh heap). *)

let bin = Filename.concat "_build" (Filename.concat "default" "bin/hummingbird.exe")

let usage () =
  prerr_endline
    "usage: hbbench --workload signoff|whatif|query --seed N --seconds S --trace 0|1";
  exit 1

(* "--key value" pairs and bare flags. *)
let options argv =
  let rec go acc = function
    | key :: value :: rest
      when String.starts_with ~prefix:"--" key
           && not (String.starts_with ~prefix:"--" value) ->
      go ((key, value) :: acc) rest
    | key :: rest when String.starts_with ~prefix:"--" key -> go ((key, "") :: acc) rest
    | _ :: _ -> usage ()
    | [] -> acc
  in
  go [] argv

let () =
  let opts = options (List.tl (Array.to_list Sys.argv)) in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  if List.mem_assoc "--setup-child" opts then
    Seeded.setup_child (Seeded.shape_of_name (get "--setup-child")) ~seed:(int "--seed")
      ~dir:(get "--dir")
  else if List.mem_assoc "--replay-flow" opts then
    Flow.replay_child ~daemon:(List.mem_assoc "--daemon" opts) ~dir:(get "--dir")
      ~report:(get "--report") ~out:(get "--out")
  else begin
    let workload = get "--workload" in
    let seed = int "--seed" and seconds = int "--seconds" and trace = int "--trace" in
    let run, run_traced =
      match workload with
      | "signoff" -> (Signoff.run, Signoff.run_traced)
      | "whatif" -> (Whatif.run, Whatif.run_traced)
      | "query" -> (Query.run, Query.run_traced)
      | _ -> usage ()
    in
    if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
    if not (Sys.file_exists bin) then begin
      prerr_endline ("hbbench: " ^ bin ^ " is not built (run hbbench/run.sh)");
      exit 1
    end;
    let dir =
      Printf.sprintf "hbbench/_work/%s-%d-%d" workload seed (Unix.getpid ())
    in
    Proc.mkdir_p dir;
    let env =
      { Env.bin; self = Sys.executable_name; dir; seed;
        seconds = float_of_int seconds }
    in
    let outcome =
      Fun.protect
        ~finally:(fun () -> Proc.kill_all (); Proc.rm_rf dir)
        (fun () -> if trace = 1 then run_traced env else run env)
    in
    print_endline (Outcome.to_json outcome)
  end
