(* One run's result: ops attempted and failed, whether every checked
   output was right, and the metrics as (name, value, unit). *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let to_json t =
  let metric (name, value, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
      (if Float.is_integer value && Float.abs value < 1e15 then
         Printf.sprintf "%.0f" value
       else Printf.sprintf "%.17g" value)
      unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    t.correct t.attempted t.failed
    (String.concat ", " (List.map metric t.metrics))

(* Tally of checked ops. [check ok] records one op. *)
type tally = { mutable ops : int; mutable bad : int; mutable notes : string list }

let tally () = { ops = 0; bad = 0; notes = [] }

let check tally ?(why = "") ok =
  tally.ops <- tally.ops + 1;
  if not ok then begin
    tally.bad <- tally.bad + 1;
    if List.length tally.notes < 5 then tally.notes <- why :: tally.notes
  end

(* An op already counted as correct whose output later proves wrong. *)
let fail_counted tally why =
  tally.bad <- tally.bad + 1;
  tally.notes <- why :: tally.notes

let finish tally metrics =
  List.iter (fun n -> prerr_endline ("hbbench: failed op: " ^ n)) (List.rev tally.notes);
  { correct = tally.bad = 0; attempted = tally.ops; failed = tally.bad; metrics }
