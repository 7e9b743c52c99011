(* Order statistics over samples, interpolated between neighbours. *)

let percentile samples p =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  Array.sort Float.compare a;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = truncate rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 50.0

let mean samples =
  match samples with
  | [] -> invalid_arg "Stats.mean: no samples"
  | _ -> List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples)
