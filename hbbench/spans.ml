(* Spans recorded by the benchmark around calls into one layer's public
   API: wall time, process cpu time and words allocated by the calling
   domain, accumulated per layer name. *)

type acc = {
  mutable wall_s : float;
  mutable cpu_s : float;
  mutable words : float;
  mutable calls : int;
}

type t = (string, acc) Hashtbl.t

let create () : t = Hashtbl.create 16

let acc (t : t) name =
  match Hashtbl.find_opt t name with
  | Some a -> a
  | None ->
    let a = { wall_s = 0.0; cpu_s = 0.0; words = 0.0; calls = 0 } in
    Hashtbl.add t name a;
    a

(* Words allocated so far by this domain. [Gc.minor_words] is exact at
   any point; [quick_stat]'s minor count only moves at collections,
   while its major-minus-promoted difference (direct major allocations)
   is current. *)
let allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [span t name f] runs [f] and charges its cost to [name]. Returns the
   result and the span's wall seconds. *)
let span t name f =
  let w0 = allocated () in
  let c0 = Sys.time () in
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  let c1 = Sys.time () in
  let w1 = allocated () in
  let a = acc t name in
  a.wall_s <- a.wall_s +. (t1 -. t0);
  a.cpu_s <- a.cpu_s +. (c1 -. c0);
  a.words <- a.words +. (w1 -. w0);
  a.calls <- a.calls + 1;
  (result, t1 -. t0)

let wall t name = (acc t name).wall_s

(* Merge [src] into [dst] (replays run in separate processes). *)
let add (dst : t) name ~wall_s ~cpu_s ~words ~calls =
  let a = acc dst name in
  a.wall_s <- a.wall_s +. wall_s;
  a.cpu_s <- a.cpu_s +. cpu_s;
  a.words <- a.words +. words;
  a.calls <- a.calls + calls

(* The three rows of one layer, each its self cost per op over [ops]
   ops: [<name>_ms], [<name>_cpu_ms], [<name>_alloc_mb]. [self_minus]
   names child layers whose cost is taken out of this one's. *)
let rows t ~ops ?(self_minus = []) name =
  let a = acc t name in
  let less f = List.fold_left (fun x c -> x -. f (acc t c)) (f a) self_minus in
  let per x = x /. float_of_int ops in
  [ (name ^ "_ms", per (less (fun a -> a.wall_s)) *. 1000.0, "ms");
    (name ^ "_cpu_ms", per (less (fun a -> a.cpu_s)) *. 1000.0, "ms");
    (name ^ "_alloc_mb", per (less (fun a -> a.words)) *. 8.0 /. 1e6, "MB");
  ]

(* Self wall time per op, in ms. *)
let self_ms t ~ops ?self_minus name =
  match rows t ~ops ?self_minus name with
  | (_, ms, _) :: _ -> ms
  | [] -> assert false

let counter name =
  let snapshot = Hb_util.Telemetry.snapshot () in
  Option.value ~default:0
    (List.assoc_opt name snapshot.Hb_util.Telemetry.counters)
