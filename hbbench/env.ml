(* What every workload needs: the program under test, this executable
   (for set-up and replay children), a per-run working directory inside the
   checkout, the seed and the run length. *)

type t = {
  bin : string;      (** the hummingbird executable *)
  self : string;     (** this benchmark executable *)
  dir : string;      (** per-run working directory *)
  seed : int;
  seconds : float;
}

(* The same run on its [k]th design, in its own directory. *)
let design env k =
  let dir = Filename.concat env.dir (Printf.sprintf "design-%d" k) in
  Proc.mkdir_p dir;
  { env with dir; seed = Seeded.design_seed ~seed:env.seed k }

(* Generate the seeded design and its reference answer in a fresh child
   process; returns the child's wall seconds. *)
let setup_child env shape =
  let r =
    Proc.run
      ~stdout_path:(Filename.concat env.dir "setup.log")
      env.self
      [ "--setup-child"; Seeded.shape_name shape; "--seed";
        string_of_int env.seed; "--dir"; env.dir ]
  in
  if r.Proc.code <> 0 then
    failwith (Printf.sprintf "set-up child exited with code %d" r.Proc.code);
  r.Proc.wall_s

(* Loop [op] until [seconds] have passed and at least [min_ops] ran. A
   hard cap keeps a pathologically slow program inside the run's time
   limit. *)
let repeat env ~min_ops op =
  let start = Proc.now () in
  let hard_stop = start +. env.seconds +. 90.0 in
  let rec go n =
    let t = Proc.now () in
    if (n < min_ops || t -. start < env.seconds) && t < hard_stop then begin
      op n;
      go (n + 1)
    end
  in
  go 0
