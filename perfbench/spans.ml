(* In-memory span recorder for the traced run.  Spans are recorded by the
   benchmark around its own calls into each layer's public functions — no
   hook inside the program.  A span is named [<layer>.<what>]; the root
   span of an op is named ["op"] and its self time is the op's
   unattributed time.

   Two kinds of child: an interval span (start and stop read around the
   call) and an attributed span, which carries a duration the layer itself
   reported (a kernel's busy time from the factorization profile, a
   request's server-side wall time from its reply footer) without a
   position inside its parent. *)

type span = {
  op : int;
  id : int;
  parent : int;  (** -1 for the op root *)
  name : string;
  start : float;  (** nan for an attributed span *)
  dur : float;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let add t ~op ~parent ~name ~start ~dur =
  Mutex.protect t.lock (fun () ->
      let id = t.next in
      t.next <- id + 1;
      t.spans <- { op; id; parent; name; start; dur } :: t.spans;
      id)

(* Reserve an id for a span whose extent is known only after its children
   ran; [close] records it. *)
let reserve t = Mutex.protect t.lock (fun () -> let id = t.next in t.next <- id + 1; id)

let close t ~id ~op ~parent ~name ~start ~stop =
  Mutex.protect t.lock (fun () ->
      t.spans <- { op; id; parent; name; start; dur = stop -. start } :: t.spans)

(* Run [f] inside an interval span; [f] receives the span id so it can
   parent further spans. *)
let within t ~op ~parent name f =
  let id = reserve t in
  let start = Common.now () in
  let r = f id in
  close t ~id ~op ~parent ~name ~start ~stop:(Common.now ());
  r

let span t ~op ~parent name f = within t ~op ~parent name (fun _ -> f ())

let attributed t ~op ~parent name dur =
  ignore (add t ~op ~parent ~name ~start:nan ~dur)

let layer_of name =
  if name = "op" then "unattributed"
  else match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* {1 Analysis} *)

type analysis = {
  ops : int;
  wall : float;  (** summed op wall time, s *)
  self_by_layer : (string * float) list;  (** includes "unattributed" *)
  problems : string list;  (** nesting / conservation violations *)
}

(* Self time of a span: its duration minus its children's, so an op's
   self times always sum to its root span's duration.  Checks, per op:
   every interval child lies inside its parent, and no self time is
   negative beyond [slack] seconds (attributed durations are read from
   other clocks).  Given [walls] — each op's wall time, timed apart from
   its spans — it also checks that the op's self times add up to that
   wall time within [slack]. *)
let analyze ?(slack = 2e-4) ?(walls = []) t =
  let spans = List.rev t.spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.))
    spans;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let layers = Hashtbl.create 16 in
  let op_self = Hashtbl.create 256 in
  let op_wall = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let self = s.dur -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0. in
      if self < -.slack then
        problem "op %d: span %s has negative self time %.6f s" s.op s.name self;
      if s.parent < 0 then Hashtbl.replace op_wall s.op s.dur
      else begin
        match Hashtbl.find_opt by_id s.parent with
        | None -> problem "op %d: span %s has no parent" s.op s.name
        | Some p ->
          if p.op <> s.op then problem "op %d: span %s crosses ops" s.op s.name;
          if Float.is_finite s.start && Float.is_finite p.start
             && (s.start < p.start -. 1e-9 || s.start +. s.dur > p.start +. p.dur +. 1e-9)
          then problem "op %d: span %s escapes its parent" s.op s.name
      end;
      let l = layer_of s.name in
      Hashtbl.replace layers l
        (self +. Option.value (Hashtbl.find_opt layers l) ~default:0.);
      Hashtbl.replace op_self s.op
        (self +. Option.value (Hashtbl.find_opt op_self s.op) ~default:0.))
    spans;
  Hashtbl.iter
    (fun op _ -> if not (Hashtbl.mem op_wall op) then problem "op %d has no root span" op)
    op_self;
  List.iter
    (fun (op, wall) ->
      match Hashtbl.find_opt op_self op with
      | None -> problem "op %d has no spans" op
      | Some self ->
        if Float.abs (self -. wall) > slack then
          problem "op %d: self times sum to %.6f s, timed wall %.6f s" op self wall)
    walls;
  let wall = Hashtbl.fold (fun _ w acc -> acc +. w) op_wall 0. in
  {
    ops = Hashtbl.length op_wall;
    wall;
    self_by_layer =
      List.sort compare (Hashtbl.fold (fun l v acc -> (l, v) :: acc) layers []);
    problems = List.rev !problems;
  }

let self_frac a layer =
  if a.wall <= 0. then 0.
  else Option.value (List.assoc_opt layer a.self_by_layer) ~default:0. /. a.wall

(* Write every span as one JSON line. *)
let write t ~path =
  Common.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%s,\"start\":%s,\"dur\":%.9f}\n"
            s.op s.id s.parent (Common.json_string s.name)
            (if Float.is_finite s.start then Printf.sprintf "%.6f" s.start else "null")
            s.dur)
        (List.rev t.spans))
