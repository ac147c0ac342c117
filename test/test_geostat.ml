module Locations = Geomix_geostat.Locations
module Covariance = Geomix_geostat.Covariance
module Field = Geomix_geostat.Field
module Prediction = Geomix_geostat.Prediction
module Mat = Geomix_linalg.Mat
module Blas = Geomix_linalg.Blas
module Stats = Geomix_util.Stats
module Rng = Geomix_util.Rng

let rng () = Rng.create ~seed:31

let test_locations_in_domain () =
  let r = rng () in
  List.iter
    (fun (locs, dims) ->
      Alcotest.(check int) "dim" dims (Locations.dim locs);
      for i = 0 to Locations.count locs - 1 do
        Array.iter
          (fun c -> Alcotest.(check bool) "in unit cube" true (c >= 0. && c <= 1.))
          (Locations.coord locs i)
      done)
    [
      (Locations.jittered_grid_2d ~rng:r ~n:100, 2);
      (Locations.jittered_grid_3d ~rng:r ~n:64, 3);
      (Locations.uniform_2d ~rng:r ~n:50, 2);
      (Locations.uniform_3d ~rng:r ~n:50, 3);
    ]

let test_locations_count () =
  let r = rng () in
  List.iter
    (fun n ->
      Alcotest.(check int) "exact count" n
        (Locations.count (Locations.jittered_grid_2d ~rng:r ~n)))
    [ 1; 10; 100; 123 ]

let test_jitter_separation () =
  (* Jittered-grid sites keep a minimum separation (the 80% inner cell). *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let min_d = ref infinity in
  for i = 0 to 99 do
    for j = i + 1 to 99 do
      min_d := Float.min !min_d (Locations.distance locs i j)
    done
  done;
  Alcotest.(check bool) (Printf.sprintf "min dist %g > 0.01" !min_d) true (!min_d > 0.01)

let test_distance () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:5 in
  Alcotest.(check (float 0.)) "self distance" 0. (Locations.distance locs 2 2);
  Alcotest.(check (float 1e-12)) "symmetric" (Locations.distance locs 0 3)
    (Locations.distance locs 3 0)

let test_cross_distance () =
  (* Distances across two location sets read the flat coordinates in place
     and equal, bit for bit, the distance inside the set they came from. *)
  let r = rng () in
  let locs = Locations.uniform_3d ~rng:r ~n:7 in
  let obs = Locations.subset locs [ 0; 1; 2; 3 ] and fresh = Locations.subset locs [ 4; 5; 6 ] in
  for i = 0 to 3 do
    for j = 0 to 2 do
      Alcotest.(check int64) "cross = within"
        (Int64.bits_of_float (Locations.distance locs i (4 + j)))
        (Int64.bits_of_float (Locations.cross_distance obs i fresh j))
    done
  done

let test_morton_sort_improves_locality () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:400 in
  let sorted = Locations.morton_sort locs in
  Alcotest.(check int) "count preserved" 400 (Locations.count sorted);
  (* Average distance between index-neighbours must shrink. *)
  let avg_gap l =
    let acc = ref 0. in
    for i = 0 to 398 do
      acc := !acc +. Locations.distance l i (i + 1)
    done;
    !acc /. 399.
  in
  Alcotest.(check bool) "locality improved" true (avg_gap sorted < 0.5 *. avg_gap locs)

let test_sqexp_properties () =
  let c = Covariance.sqexp ~sigma2:1.5 ~beta:0.2 () in
  Alcotest.(check (float 1e-12)) "C(0)=σ²" 1.5 (Covariance.eval c 0.);
  Alcotest.(check bool) "decreasing" true
    (Covariance.eval c 0.1 > Covariance.eval c 0.2);
  Alcotest.(check bool) "vanishing" true (Covariance.eval c 10. < 1e-10)

let test_matern_nu_half_is_exponential () =
  let c = Covariance.matern ~sigma2:2. ~beta:0.3 ~nu:0.5 () in
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-10)) "exp form" (2. *. exp (-.h /. 0.3)) (Covariance.eval c h))
    [ 0.05; 0.1; 0.5; 1. ]

let test_matern_special_case_consistency () =
  (* The Bessel branch at ν=0.5±ε must agree with the closed form. *)
  let h = 0.23 in
  let c_exact = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 () in
  let c_eps = Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5000001 () in
  Alcotest.(check bool) "branch continuity" true
    (Float.abs (Covariance.eval c_exact h -. Covariance.eval c_eps h) < 1e-5)

let test_matern_smoothness_effect () =
  (* Higher ν ⇒ flatter near the origin (smoother field). *)
  let rough = Covariance.matern ~sigma2:1. ~beta:0.2 ~nu:0.5 () in
  let smooth = Covariance.matern ~sigma2:1. ~beta:0.2 ~nu:1.5 () in
  let h = 0.02 in
  Alcotest.(check bool) "smooth retains more correlation at tiny h" true
    (Covariance.eval smooth h > Covariance.eval rough h)

let test_powexp_properties () =
  let c = Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1. () in
  (* power = 1 is the exponential kernel. *)
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-12)) "exp form" (exp (-.h /. 0.2)) (Covariance.eval c h))
    [ 0.05; 0.2; 0.7 ];
  (* power = 2 coincides with sqexp at range β². *)
  let p2 = Covariance.powexp ~sigma2:1.5 ~beta:0.3 ~power:2. () in
  let sq = Covariance.sqexp ~sigma2:1.5 ~beta:0.09 () in
  List.iter
    (fun h ->
      Alcotest.(check (float 1e-12)) "matches sqexp" (Covariance.eval sq h)
        (Covariance.eval p2 h))
    [ 0.05; 0.2; 0.7 ]

let test_spherical_properties () =
  let c = Covariance.spherical ~sigma2:2. ~beta:0.5 () in
  Alcotest.(check (float 1e-12)) "C(0)=σ²" 2. (Covariance.eval c 0.);
  Alcotest.(check (float 0.)) "compact support" 0. (Covariance.eval c 0.5);
  Alcotest.(check (float 0.)) "beyond range" 0. (Covariance.eval c 1.2);
  Alcotest.(check bool) "decreasing inside" true
    (Covariance.eval c 0.1 > Covariance.eval c 0.3);
  (* Continuity at the range. *)
  Alcotest.(check bool) "continuous at beta" true (Covariance.eval c 0.4999 < 1e-3)

let test_new_families_spd () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  List.iter
    (fun cov -> Blas.potrf_lower (Covariance.build_dense cov locs))
    [
      Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1.5 ();
      Covariance.spherical ~sigma2:1. ~beta:0.4 ();
    ]

let test_new_families_theta () =
  let p = Covariance.powexp ~sigma2:1. ~beta:0.2 ~power:1.5 () in
  Alcotest.(check (array (float 0.))) "powexp theta" [| 1.; 0.2; 1.5 |] (Covariance.theta p);
  let s = Covariance.spherical ~sigma2:1. ~beta:0.4 () in
  Alcotest.(check (array (float 0.))) "spherical theta" [| 1.; 0.4 |] (Covariance.theta s);
  let s' = Covariance.with_theta s [| 2.; 0.3 |] in
  Alcotest.(check (float 0.)) "updated" 2. (Covariance.eval s' 0.)

let test_element_nugget () =
  let r = rng () in
  let locs = Locations.uniform_2d ~rng:r ~n:4 in
  let c = Covariance.sqexp ~nugget:1e-3 ~sigma2:1. ~beta:0.1 () in
  Alcotest.(check (float 1e-15)) "diagonal includes nugget" (1. +. 1e-3)
    (Covariance.element c locs 2 2)

let test_build_dense_spd () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  List.iter
    (fun cov ->
      let m = Covariance.build_dense cov locs in
      (* Symmetric... *)
      Alcotest.(check (float 0.)) "symmetric" 0.
        (Mat.rel_diff (Mat.transpose m) ~reference:m);
      (* ...and positive definite: Cholesky succeeds. *)
      Blas.potrf_lower m)
    [
      Covariance.sqexp ~sigma2:1. ~beta:0.1 ();
      Covariance.matern ~sigma2:1. ~beta:0.1 ~nu:0.5 ();
      Covariance.matern ~sigma2:1. ~beta:0.3 ~nu:1. ();
    ]

let test_build_tiled_matches_dense () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:48 in
  let cov = Covariance.matern ~sigma2:1. ~beta:0.2 ~nu:0.8 () in
  let d = Covariance.build_dense cov locs in
  let t = Geomix_tile.Tiled.to_dense (Covariance.build_tiled cov locs ~nb:16) in
  Alcotest.(check (float 0.)) "same matrix" 0. (Mat.rel_diff t ~reference:d)

let test_theta_roundtrip () =
  let c = Covariance.matern ~sigma2:1.2 ~beta:0.4 ~nu:0.9 () in
  let c' = Covariance.with_theta c [| 0.8; 0.2; 1.1 |] in
  Alcotest.(check (array (float 0.))) "updated" [| 0.8; 0.2; 1.1 |] (Covariance.theta c');
  Alcotest.check_raises "arity enforced"
    (Invalid_argument "Covariance.with_theta: wrong parameter count") (fun () ->
    ignore (Covariance.with_theta c [| 1. |]))

let test_field_variance () =
  (* The empirical variance of a synthesised field matches σ² roughly. *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:400 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.02 () in
  let zs = Field.synthesize_many ~rng:r ~cov ~replicas:8 locs in
  let all = Array.concat (Array.to_list zs) in
  let v = Stats.variance all in
  Alcotest.(check bool) (Printf.sprintf "variance %g ≈ 1" v) true (v > 0.7 && v < 1.3)

let test_field_replicas_differ () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:32 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.1 () in
  let zs = Field.synthesize_many ~rng:r ~cov ~replicas:2 locs in
  Alcotest.(check bool) "independent replicas" true (zs.(0) <> zs.(1))

let test_field_correlation_structure () =
  (* Strongly correlated field: neighbouring values nearly equal. *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let strong = Field.synthesize ~rng:r ~cov:(Covariance.sqexp ~sigma2:1. ~beta:2. ()) locs in
  (* Pick the closest pair. *)
  let bi = ref 0 and bj = ref 1 and bd = ref infinity in
  for i = 0 to 99 do
    for j = i + 1 to 99 do
      let d = Locations.distance locs i j in
      if d < !bd then begin
        bd := d;
        bi := i;
        bj := j
      end
    done
  done;
  Alcotest.(check bool) "close sites close values" true
    (Float.abs (strong.(!bi) -. strong.(!bj)) < 0.2)

let test_prediction_interpolates () =
  (* Kriging at an observed site with the true covariance returns almost
     the observed value (tiny nugget). *)
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:100 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.5 () in
  let z = Field.synthesize ~rng:r ~cov locs in
  let p = Prediction.predict ~cov ~obs_locs:locs ~z ~new_locs:locs in
  let err = Prediction.mse ~predicted:p.Prediction.mean ~truth:z in
  Alcotest.(check bool) (Printf.sprintf "mse %g tiny" err) true (err < 1e-4);
  Array.iter
    (fun v -> Alcotest.(check bool) "variance ≈ 0 at data" true (v < 1e-2))
    p.Prediction.variance

let test_prediction_variance_grows_far_away () =
  let r = rng () in
  let locs = Locations.jittered_grid_2d ~rng:r ~n:64 in
  let cov = Covariance.sqexp ~sigma2:1. ~beta:0.01 () in
  let z = Field.synthesize ~rng:r ~cov locs in
  (* A site far outside the unit square is unpredictable: σ*² → σ². *)
  let far = Locations.uniform_2d ~rng:r ~n:1 in
  (* shift it out of the domain by predicting with scaled coords *)
  let p = Prediction.predict ~cov ~obs_locs:locs ~z ~new_locs:far in
  Alcotest.(check bool) "variance below prior" true (p.Prediction.variance.(0) <= 1. +. 1e-6)

let () =
  Alcotest.run "geostat"
    [
      ( "locations",
        [
          Alcotest.test_case "domain" `Quick test_locations_in_domain;
          Alcotest.test_case "count" `Quick test_locations_count;
          Alcotest.test_case "separation" `Quick test_jitter_separation;
          Alcotest.test_case "distance" `Quick test_distance;
          Alcotest.test_case "cross distance" `Quick test_cross_distance;
          Alcotest.test_case "morton locality" `Quick test_morton_sort_improves_locality;
        ] );
      ( "covariance",
        [
          Alcotest.test_case "sqexp" `Quick test_sqexp_properties;
          Alcotest.test_case "matern ν=1/2 exponential" `Quick test_matern_nu_half_is_exponential;
          Alcotest.test_case "matern branch continuity" `Quick test_matern_special_case_consistency;
          Alcotest.test_case "smoothness effect" `Quick test_matern_smoothness_effect;
          Alcotest.test_case "powexp" `Quick test_powexp_properties;
          Alcotest.test_case "spherical" `Quick test_spherical_properties;
          Alcotest.test_case "new families SPD" `Quick test_new_families_spd;
          Alcotest.test_case "new families theta" `Quick test_new_families_theta;
          Alcotest.test_case "nugget" `Quick test_element_nugget;
          Alcotest.test_case "dense SPD" `Quick test_build_dense_spd;
          Alcotest.test_case "tiled = dense" `Quick test_build_tiled_matches_dense;
          Alcotest.test_case "theta roundtrip" `Quick test_theta_roundtrip;
        ] );
      ( "field",
        [
          Alcotest.test_case "variance" `Quick test_field_variance;
          Alcotest.test_case "replicas differ" `Quick test_field_replicas_differ;
          Alcotest.test_case "correlation structure" `Quick test_field_correlation_structure;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "interpolates" `Quick test_prediction_interpolates;
          Alcotest.test_case "variance bounded" `Quick test_prediction_variance_grows_far_away;
        ] );
    ]
