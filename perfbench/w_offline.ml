(* offline-sweep: the HPC library user's path, in one process. *)

open Common
module S = Ivc_grid.Stencil
module Cert = Ivc_resilient.Cert

(* A dense 1024^2 grid with uniform weights, and a sparse 64^3 grid
   whose weight sits in 12 Gaussian clusters over mostly empty cells,
   like FluAnimal. Each cluster has the same shape and is centred on a
   seeded cell in its own block of a 3x2x2 lattice, so seeds move the
   clusters without piling them up or changing their shape. [side2]/[side3] shrink the grids for the
   probe. *)
let cluster_sigma = 3.0
let cluster_peak = 60.0

let grids ?(side2 = 1024) ?(side3 = 64) ~seed () =
  let r = Stats.rng seed in
  let g2 = S.init2 ~x:side2 ~y:side2 (fun _ _ -> Stats.int r 21) in
  let side = Float.of_int side3 in
  let clusters =
    Array.init 12 (fun k ->
        let centre cell cells =
          let w = side /. Float.of_int cells in
          Float.round ((Float.of_int cell +. 0.25 +. (0.5 *. Stats.float01 r)) *. w)
        in
        (centre (k mod 3) 3, centre (k / 3 mod 2) 2, centre (k / 6) 2, cluster_sigma, cluster_peak))
  in
  let g3 =
    S.init3 ~x:side3 ~y:side3 ~z:side3 (fun i j k ->
        let w =
          Array.fold_left
            (fun acc (cx, cy, cz, s, a) ->
              let d2 =
                ((Float.of_int i -. cx) ** 2.0) +. ((Float.of_int j -. cy) ** 2.0)
                +. ((Float.of_int k -. cz) ** 2.0)
              in
              acc +. (a *. exp (-.d2 /. (2.0 *. s *. s))))
            0.0 clusters
        in
        if w < 1.0 then 0 else int_of_float w)
  in
  (g2, g3)

(* A seeded Dengue-like cloud for STKDE: the paper's synthetic Dengue
   points, each displaced by up to half a unit in space and time, on a
   64x64x32 density grid split into 8x8x4 tasks. *)
let stkde_config ?(scale = 1.0) ?(voxels = (64, 64, 32)) ~seed () =
  let base = Spatial_data.Datasets.dengue ~scale () in
  let r = Stats.rng seed in
  let j () = Stats.float01 r -. 0.5 in
  let pts =
    Array.map
      (fun p -> { Spatial_data.Points.x = p.Spatial_data.Points.x +. j (); y = p.y +. j (); t = p.t +. j () })
      base.Spatial_data.Points.points
  in
  let cloud = Spatial_data.Points.make "Dengue" pts in
  let bx, by, bz = (8, 8, 4) in
  let open Spatial_data.Points in
  let hs =
    Float.min ((cloud.x1 -. cloud.x0) /. (2.5 *. Float.of_int bx)) ((cloud.y1 -. cloud.y0) /. (2.5 *. Float.of_int by))
  in
  let ht = (cloud.t1 -. cloud.t0) /. (2.5 *. Float.of_int bz) in
  Stkde.App.make ~cloud ~voxels ~boxes:(bx, by, bz) ~hs ~ht

let certify name inst starts =
  match Trace.span "cert.check" (fun () -> Cert.check inst starts) with
  | Ok mc -> mc
  | Error e -> raise (Gate (Printf.sprintf "%s coloring fails Cert.check: %s" name (Cert.to_string e)))

(* Every in-core coloring of one grid, each timed with its
   certificate (and timed again if a steal burst hit it): the
   algorithms of [Ivc.Algo.all], the tiled sweep and the parallel
   sweep, which must also equal the kernel on its equivalent order.
   Returns (name, maxcolor, wall seconds, seconds at reference speed). *)
let in_core inst =
  let timed name color =
    let (mc, starts), wall, ref_s =
      List.hd
        (guarded ~reps:1 (fun () ->
             at_reference_speed (fun () ->
                 let starts = color () in
                 (certify name inst starts, starts))))
    in
    (name, mc, (wall, ref_s), starts)
  in
  let runs =
    List.map
      (fun a -> timed a.Ivc.Algo.name (fun () -> Trace.span ("core.algo." ^ a.Ivc.Algo.name) (fun () -> a.Ivc.Algo.run inst)))
      Ivc.Algo.all
    @ [
        timed "tiled" (fun () -> Trace.span "kernel.tiled" (fun () -> Ivc_kernel.Tiles.color inst));
        timed "par" (fun () ->
            fst (Trace.span "kernel.par" (fun () -> Ivc_kernel.Par_sweep.color ~workers:nproc inst)));
      ]
  in
  let _, _, _, par = List.nth runs (List.length runs - 1) in
  gate
    (par = Ivc_kernel.Ff.color_in_order inst (Ivc_kernel.Par_sweep.equivalent_order inst))
    "Par_sweep differs from Ff.color_in_order on its equivalent order";
  List.map (fun (name, mc, s, _) -> (name, mc, s)) runs

type pass = { sweep_s : float; sweep_ref_s : float; vertices : int; maxcolor_sum : int }

let sweep_pass (g2, g3) =
  let runs = List.concat_map (fun g -> List.map (fun r -> (g, r)) (in_core g)) [ g2; g3 ] in
  {
    sweep_s = List.fold_left (fun a (_, (_, _, (s, _))) -> a +. s) 0.0 runs;
    sweep_ref_s = List.fold_left (fun a (_, (_, _, (_, s))) -> a +. s) 0.0 runs;
    vertices = List.fold_left (fun a (g, _) -> a + S.n_vertices g) 0 runs;
    maxcolor_sum = List.fold_left (fun a (_, (_, mc, _)) -> a + mc) 0 runs;
  }

(* One out-of-core solve of the 2D grid under a halo budget of an
   eighth of the grid's starts array, then an independent streaming
   verification that must agree on maxcolor. Returns the solve's wall
   time, its time at reference speed, and its outcome. *)
let ooc_pass g2 =
  let dir = fresh_dir "ooc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let src = Ivc_ooc.Source.of_stencil g2 in
      let mem_budget = S.n_vertices g2 in
      let res, solve_s, ref_s =
        at_reference_speed (fun () ->
            Trace.span "ooc.solve" (fun () -> Ivc_resilient.Driver.solve_ooc ~mem_budget ~dir src))
      in
      match res with
      | Error e -> raise (Gate ("solve_ooc: " ^ Ivc_resilient.Driver.ooc_error_to_string e))
      | Ok o ->
          let v = Trace.span "ooc.verify" (fun () -> Ivc_ooc.Ooc.verify ~mem_budget ~dir src) in
          (match v with
          | Ok mc -> gate (mc = o.Ivc_resilient.Driver.ooc_maxcolor) "Ooc.verify maxcolor %d, solve_ooc %d" mc o.ooc_maxcolor
          | Error e -> raise (Gate ("Ooc.verify: " ^ Ivc_ooc.Ooc.error_to_string e)));
          (solve_s, ref_s, o))

(* STKDE scheduled by a GLL coloring of its task grid on [nproc]
   domains; every parallel density must equal the sequential one,
   computed once per [stkde_runs]. *)
let stkde_tolerance = 1e-9

(* [reps] parallel runs; the wall and reference-speed times of each *)
let stkde_runs cfg ~reps =
  let inst = Stkde.App.coloring_instance cfg in
  let starts = Trace.span "stkde.color" (fun () -> Ivc.Heuristics.gll inst) in
  ignore (certify "stkde GLL" inst starts);
  let seq = Trace.span "stkde.sequential" (fun () -> Stkde.App.density_sequential cfg) in
  let scale = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 1e-300 seq in
  guarded ~reps (fun () ->
      let (par, _), wall, ref_s =
        at_reference_speed (fun () ->
            Trace.span "stkde.parallel" (fun () -> Stkde.App.density_parallel cfg ~starts ~workers:nproc))
      in
      let diff = Stkde.App.max_diff par seq /. scale in
      gate (diff <= stkde_tolerance) "STKDE parallel density differs from sequential by %g (relative)" diff;
      (wall, ref_s))
