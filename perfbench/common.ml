(* Shared plumbing: clocks, process memory, scratch directories and the
   result record every workload returns. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Median wall time of [reps] calls of [f] (result of the last call kept). *)
let median_time ~reps f =
  let last = ref None in
  let ts =
    List.init reps (fun _ ->
        let r, dt = time f in
        last := Some r;
        dt)
  in
  (Option.get !last, Stats.median ts)

(* Repeat [f] until at least [min_s] seconds have passed (and at least
   once); returns seconds per call.  Used for kernel rates, so a call of a
   few microseconds is still timed over many repetitions. *)
let per_call ~min_s f =
  let t0 = now () in
  let calls = ref 0 in
  while !calls = 0 || now () -. t0 < min_s do
    f ();
    incr calls
  done;
  (now () -. t0) /. float_of_int !calls

(* Median over [batches] of [per_call]. *)
let rate_time ?(batches = 5) ~min_s f =
  Stats.median (List.init batches (fun _ -> per_call ~min_s f))

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

(* Scratch space inside the checkout (the working directory), on the same
   disk as the sources — out-of-core runs must hit a real disk, not tmpfs.
   Removed when the workload ends. *)
let scratch_root = "_perfbench_scratch"
let out_root = "_perfbench_out"

let with_scratch name f =
  let dir =
    Filename.concat scratch_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf dir;
  mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir scratch_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* {1 Results} *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  source : string;  (** "live", "trace", "probe" or "computed" *)
}

let m ?(source = "live") name unit_ value = { name; value; unit_; source }

type result = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** name, passed *)
  e2e : metric list;
  layers : metric list;
  notes : string list;
}

let f64_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let ms s = 1000. *. s

(* Write the measured ops (start relative to [t0], latency, kind) as CSV
   under the output directory. *)
let write_ops ~workload ~seed ~t0 ops =
  mkdir_p out_root;
  let path = Filename.concat out_root (Printf.sprintf "ops-%s-seed%d.csv" workload seed) in
  let oc = open_out path in
  output_string oc "start_s,latency_ms,kind\n";
  List.iter (fun (start, dur, kind) -> Printf.fprintf oc "%.6f,%.4f,%s\n" (start -. t0) (ms dur) kind) ops;
  close_out oc

(* A JSON string literal (UTF-8 passes through). *)
let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b
