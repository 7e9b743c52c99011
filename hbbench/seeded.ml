(* Everything the seed decides: the generated design, the reference
   answer computed from it, and the op streams sent to the program.

   Set-up runs in a child process of the benchmark ([--setup-child]),
   so each repetition starts from a fresh heap and the parent's own
   heap stays small while it drives the real binary. *)

open Hb_sta

type shape = Signoff | Serve

(* Tiled-Feistel dimensions: the scale100k and scale10k presets. *)
let dims = function Signoff -> (13, 24) | Serve -> (4, 8)

let shape_name = function Signoff -> "signoff" | Serve -> "serve"

let shape_of_name = function
  | "signoff" -> Signoff
  | "serve" -> Serve
  | other -> failwith ("unknown design shape " ^ other)

let hbn dir = Filename.concat dir "design.hbn"

let hbc dir = Filename.concat dir "design.hbc"

let library = Hb_cell.Library.default ()

(* The seed of a run's [k]th design. Runs set up several designs, so one
   design's cost does not decide the run's figures; design 0 is the
   run's own seed. *)
let design_seed ~seed k =
  if k = 0 then seed else (seed * 7919 + k * 104_729) land 0x3FFF_FFFF

let generate shape ~seed =
  let tiles, stages = dims shape in
  Hb_workload.Scale.feistel ~seed:(Int64.of_int seed) ~name:(shape_name shape)
    ~tiles ~stages ()

(* Reports print every time with [%.6f]; compare what the program can
   print, bit for bit. *)
let rendered x = float_of_string (Printf.sprintf "%.6f" x)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let verdict_name = function
  | Algorithm1.Meets_timing -> "meets_timing"
  | Algorithm1.Slow_paths -> "slow_paths"

(* Endpoints whose rendered data-input slack is not positive. *)
let slow_endpoints (slacks : Slacks.t) =
  Array.fold_left
    (fun n s ->
      if Hb_util.Time.is_finite s && rendered s <= 0.0 then n + 1 else n)
    0 slacks.Slacks.element_input_slack

(* ------------------------------------------------------------------ *)
(* Reference answer                                                   *)
(* ------------------------------------------------------------------ *)

type reference = {
  verdict : string;
  worst : float;          (** rendered worst slack *)
  slow : int;             (** slow endpoint count *)
  oracle : string;        (** agrees | truncated | disagrees *)
}

(* The exhaustive oracle's path budget: scale100k walks about 2.6M
   complete paths. *)
let oracle_budget = 50_000_000

(* One in-process engine run on the generated design, cross-checked
   against the flat-graph oracle within its documented tolerance when
   the oracle's walk completes. *)
let compute_reference design system =
  let report = Engine.analyse ~design ~system () in
  let slacks = report.Engine.outcome.Algorithm1.final in
  let oracle = Reference.evaluate ~max_paths:oracle_budget report.Engine.context in
  (* The oracle folds delays in another order: agreement is within an
     absolute tolerance, and the verdict is compared only away from the
     decision boundary (as the differential fuzz checks do). *)
  let tolerance = 1e-6 in
  let oracle_status =
    if oracle.Reference.truncated then "truncated"
    else
      let close a b =
        Float.equal a b
        || (Hb_util.Time.is_finite a && Hb_util.Time.is_finite b
            && Float.abs (a -. b) <= tolerance)
      in
      let engine_meets = Slacks.all_positive slacks in
      let oracle_meets = oracle.Reference.status = `Meets_timing in
      if close slacks.Slacks.worst oracle.Reference.worst_slack
         && (Float.abs slacks.Slacks.worst <= tolerance
             || engine_meets = oracle_meets)
      then "agrees"
      else "disagrees"
  in
  ( report,
    { verdict = verdict_name report.Engine.outcome.Algorithm1.status;
      worst = rendered slacks.Slacks.worst;
      slow = slow_endpoints slacks;
      oracle = oracle_status;
    } )

let reference_file dir = Filename.concat dir "reference.txt"

let write_reference dir r =
  Proc.write_file (reference_file dir)
    (Printf.sprintf "%s %h %d %s\n" r.verdict r.worst r.slow r.oracle)

let read_reference dir =
  Scanf.sscanf (Proc.read_file (reference_file dir)) "%s %h %d %s"
    (fun verdict worst slow oracle -> { verdict; worst; slow; oracle })

(* ------------------------------------------------------------------ *)
(* What-if edit candidates                                            *)
(* ------------------------------------------------------------------ *)

(* A gate on one of the worst paths, with the drive variant it toggles
   to and back. *)
type candidate = { instance : string; home : string; away : string }

let candidates_file dir = Filename.concat dir "candidates.txt"

(* Gates on the 64 worst paths that have another drive variant, in
   path order. *)
let pick_candidates (report : Engine.report) =
  let ctx = report.Engine.context in
  let design = ctx.Context.design in
  let paths =
    Paths.worst_paths ctx report.Engine.outcome.Algorithm1.final ~limit:64
  in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun (p : Paths.path) ->
      List.filter_map
        (fun (h : Paths.hop) ->
          match h.Paths.via with
          | Some id when not (Hashtbl.mem seen id) ->
            Hashtbl.add seen id ();
            let inst = Hb_netlist.Design.instance design id in
            let cell = inst.Hb_netlist.Design.cell in
            let variant =
              match Hb_cell.Library.upsize library cell with
              | Some c -> Some c
              | None -> Hb_cell.Library.downsize library cell
            in
            Option.map
              (fun (away : Hb_cell.Cell.t) ->
                { instance = inst.Hb_netlist.Design.inst_name;
                  home = cell.Hb_cell.Cell.name;
                  away = away.Hb_cell.Cell.name;
                })
              variant
          | _ -> None)
        p.Paths.hops)
    paths

let write_candidates dir cs =
  Proc.write_file (candidates_file dir)
    (String.concat ""
       (List.map (fun c -> Printf.sprintf "%s %s %s\n" c.instance c.home c.away) cs))

let read_candidates dir =
  Proc.read_file (candidates_file dir)
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         Scanf.sscanf line "%s %s %s" (fun instance home away ->
             { instance; home; away }))
  |> Array.of_list

(* The body of [--setup-child]: generate, write the input files, and
   compute the reference answer and the what-if candidates. *)
let setup_child shape ~seed ~dir =
  let design, system = generate shape ~seed in
  Hb_netlist.Hbn_format.write_file design (hbn dir);
  Proc.write_file (hbc dir) (Hb_clock.System.to_string system);
  let report, reference = compute_reference design system in
  write_reference dir reference;
  write_candidates dir (pick_candidates report)

(* The serve daemon's session configuration: default flags and one
   analysis job (the daemon clamps sessions to one job when its
   scheduler runs several workers, and runs one worker only on a
   one-core machine). *)
let daemon_config = { Config.default with Config.parallel_jobs = 1 }

(* A session on the written design, configured as the daemon
   configures one. *)
let daemon_session dir =
  let design = Hb_netlist.Hbn_format.parse ~library (Proc.read_file (hbn dir)) in
  let system = Hb_clock.System.parse_file (hbc dir) in
  Session.create ~design ~system ~config:daemon_config ()

(* ------------------------------------------------------------------ *)
(* Op streams                                                         *)
(* ------------------------------------------------------------------ *)

type command =
  | Resize of { instance : string; cell : string }
  | Scale of { instance : string; factor : float }

let command_json = function
  | Resize { instance; cell } ->
    Printf.sprintf {|{"op":"resize_gate","instance":"%s","cell":"%s"}|}
      instance cell
  | Scale { instance; factor } ->
    Printf.sprintf {|{"op":"scale_delay","instance":"%s","factor":%.2f}|}
      instance factor

let command_edit = function
  | Resize { instance; cell } ->
    Edit.Resize_gate { instance; cell = Hb_cell.Library.find_exn library cell }
  | Scale { instance; factor } -> Edit.Scale_delay { instance; factor }

(* Independent streams per purpose and connection, all from one seed. *)
let rng ~seed ~stream =
  Hb_util.Rng.create (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L)
                        (Int64.of_int stream))

(* The what-if stream: each op is a batch of four commands on distinct
   candidates — two gate resizes and two delay scalings. Every command
   toggles its instance between two states (home/away drive, scale
   1.25/1.0), so the design oscillates instead of drifting. *)
let whatif_stream ~seed candidates =
  let rng = rng ~seed ~stream:1 in
  let n = Array.length candidates in
  if n < 4 then failwith "fewer than four what-if candidates";
  let resized = Hashtbl.create 64 and scaled = Hashtbl.create 64 in
  let toggle table key =
    let on = not (Hashtbl.mem table key) in
    if on then Hashtbl.replace table key () else Hashtbl.remove table key;
    on
  in
  fun () ->
    let order = Array.init n Fun.id in
    Hb_util.Rng.shuffle rng order;
    List.mapi
      (fun k i ->
        let c = candidates.(order.(i)) in
        if k < 2 then
          let away = toggle resized c.instance in
          Resize { instance = c.instance; cell = (if away then c.away else c.home) }
        else
          let up = toggle scaled c.instance in
          Scale { instance = c.instance; factor = (if up then 1.25 else 1.0) })
      [ 0; 1; 2; 3 ]

(* The cached-read mix of the query workload, as fixed request lines so
   every reply to one method is byte-identical. *)
let query_methods = [| "analyse"; "paths"; "constraints"; "hold" |]

let query_line = function
  | "analyse" ->
    {|{"id":1,"request_id":"q-analyse","method":"analyse","params":{"paths":5}}|}
  | "paths" ->
    {|{"id":2,"request_id":"q-paths","method":"paths","params":{"limit":5}}|}
  | "constraints" -> {|{"id":3,"request_id":"q-constraints","method":"constraints"}|}
  | "hold" -> {|{"id":4,"request_id":"q-hold","method":"hold"}|}
  | m -> invalid_arg ("query_line " ^ m)

(* Method indices for connection [conn], uniform over the mix. *)
let query_stream ~seed ~conn =
  let rng = rng ~seed ~stream:(100 + conn) in
  fun () -> Hb_util.Rng.int rng (Array.length query_methods)
