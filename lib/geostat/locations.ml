module Rng = Geomix_util.Rng

(* Site i's coordinates are coords.(i·dim) .. coords.(i·dim + dim − 1):
   one unboxed float array rather than a boxed array per site, which halves
   the footprint of every location set a service cache holds. *)
type t = { dim : int; coords : float array }

let dim t = t.dim
let count t = Array.length t.coords / t.dim
let coord t i = Array.sub t.coords (i * t.dim) t.dim
let of_sites dim sites = { dim; coords = Array.concat (Array.to_list sites) }

let jittered_grid ~dims ~rng ~n =
  assert (n > 0);
  let side =
    int_of_float (Float.ceil (Float.pow (float_of_int n) (1. /. float_of_int dims)))
  in
  let cell = 1. /. float_of_int side in
  let total = int_of_float (Float.pow (float_of_int side) (float_of_int dims)) in
  let all =
    Array.init total (fun c ->
      let rec digits c k acc =
        if k = 0 then acc else digits (c / side) (k - 1) ((c mod side) :: acc)
      in
      let ds = digits c dims [] in
      Array.of_list
        (List.map
           (fun d ->
             (* Uniform inside the middle 80% of the cell. *)
             (float_of_int d *. cell) +. (cell *. (0.1 +. (0.8 *. Rng.float rng))))
           ds))
  in
  (* Keep a uniformly random subset of exactly n cells. *)
  Rng.shuffle rng all;
  of_sites dims (Array.sub all 0 n)

let jittered_grid_2d ~rng ~n = jittered_grid ~dims:2 ~rng ~n
let jittered_grid_3d ~rng ~n = jittered_grid ~dims:3 ~rng ~n

let uniform ~dims ~rng ~n =
  of_sites dims (Array.init n (fun _ -> Array.init dims (fun _ -> Rng.float rng)))

let uniform_2d ~rng ~n = uniform ~dims:2 ~rng ~n
let uniform_3d ~rng ~n = uniform ~dims:3 ~rng ~n

let of_coord_list ~dims coords =
  let coords = Array.of_list coords in
  Array.iter (fun c -> assert (Array.length c = dims)) coords;
  of_sites dims coords

let subset t idx = of_sites t.dim (Array.of_list (List.map (coord t) idx))

let cross_distance s i t j =
  assert (s.dim = t.dim);
  let a = i * s.dim and b = j * t.dim in
  let acc = ref 0. in
  for d = 0 to s.dim - 1 do
    let x = s.coords.(a + d) -. t.coords.(b + d) in
    acc := !acc +. (x *. x)
  done;
  sqrt !acc

let distance t i j = cross_distance t i t j

(* Morton key: interleave the top 16 bits of each (quantised) coordinate. *)
let morton_key dims coords =
  let quant = Array.map (fun c ->
    let v = int_of_float (c *. 65536.) in
    Stdlib.min 65535 (Stdlib.max 0 v))
    coords
  in
  let key = ref 0 in
  for bit = 15 downto 0 do
    for d = 0 to dims - 1 do
      key := (!key lsl 1) lor ((quant.(d) lsr bit) land 1)
    done
  done;
  !key

let morton_sort t =
  let keyed = Array.init (count t) (fun i -> (morton_key t.dim (coord t i), i)) in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) keyed;
  of_sites t.dim (Array.map (fun (_, i) -> coord t i) keyed)
