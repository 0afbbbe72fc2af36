(* The repo benchmark. One run:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   builds its inputs from the seed, measures for about S seconds,
   checks every output, prints a human-readable report and, as its last
   line, one JSON object {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer ones, from in-process replays of the run's own
   samples with the benchmark's spans on. See NOTES.md for why each
   workload exists. *)

open Common
module S = Ivc_grid.Stencil

let workloads = [ "catalog-solve"; "grid-delta"; "offline-sweep" ]

(* ---- set-up --------------------------------------------------------------- *)

(* Set up [setup_reps] times and keep the last; setup_s is the median.
   grid-delta keeps all three of its set-ups. *)
let setup_reps = 5

let timed_setups ~setup ~dispose =
  let times = ref [] and last = ref None in
  for _ = 1 to setup_reps do
    Option.iter dispose !last;
    let t0 = now () in
    last := Some (setup ());
    times := (now () -. t0) :: !times
  done;
  (Stats.median !times, Option.get !last)

(* ---- end-to-end metric families ------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let solve_family t ds cat ~seed ~seconds =
  let r = W_catalog.measure ds cat ~seed ~seconds in
  t.attempted <- t.attempted + Array.length r.samples;
  t.failed <- t.failed + r.failed;
  List.iter (note t "%s") r.notes;
  r

let delta_run ?keep t d chains ~seed ~seconds =
  let r = W_delta.measure ?keep d chains ~seed ~seconds in
  t.attempted <- t.attempted + List.length r.samples + r.failed;
  t.failed <- t.failed + r.failed;
  r

let delta_figures t runs =
  let metrics, summary = W_delta.figures runs in
  note t "%s" summary;
  metrics

(* The short offline timings are medians of a few runs. *)
let stkde_reps = 9
let ooc_reps = 3

let median_metrics runs =
  List.mapi
    (fun k x -> { x with value = Stats.median (List.map (fun ms -> (List.nth ms k).value) runs) })
    (List.hd runs)

let offline_family t (g2, g3) cfg =
  let p = W_offline.sweep_pass (g2, g3) in
  let oocs = guarded ~reps:ooc_reps (fun () -> W_offline.ooc_pass g2) in
  let stkde = W_offline.stkde_runs cfg ~reps:stkde_reps in
  let med f xs = Stats.median (List.map f xs) in
  let ooc_s = med (fun (s, _, _) -> s) oocs and ooc_ref_s = med (fun (_, s, _) -> s) oocs in
  let stkde_s = med fst stkde and stkde_ref_s = med snd stkde in
  let colorings = 2 * (List.length Ivc.Algo.all + 2) in
  t.attempted <- t.attempted + colorings + ooc_reps + stkde_reps;
  note t
    "sweep: %d colorings, %d vertices in %.2f s (%.2f s at reference speed); ooc median of %d %.3f s (%.3f s); stkde median of %d %.4f s (%.4f s)"
    colorings p.vertices p.sweep_s p.sweep_ref_s ooc_reps ooc_s ooc_ref_s stkde_reps stkde_s stkde_ref_s;
  let _, _, o = List.hd oocs in
  ( p,
    [
      m "sweep_mvps" "Mv/s" (Float.of_int p.vertices /. p.sweep_ref_s /. 1e6);
      m "sweep_maxcolor_sum" "colors" (Float.of_int p.maxcolor_sum);
      m "ooc_mvps" "Mv/s" (Float.of_int (S.n_vertices g2) /. ooc_ref_s /. 1e6);
      m "stkde_s" "s" stkde_ref_s;
    ],
    (ooc_s, o) )

(* ---- probes ----------------------------------------------------------------

   Every run reports every end-to-end metric. The families a workload
   does not exercise come from a small fixed probe (seed 0, small
   inputs, a fresh daemon). Probes run first, before the workload's own
   set-up, so they never load its measurement and its big inputs never
   slow theirs. A probe is taken in rounds that no steal burst hit,
   each serving probe on a fresh daemon: how the two processes land on
   the CPUs moves a daemon's latencies by a tenth or more. *)

let probe_seed = 0
let probe_rounds = 5
let offline_probe_rounds = 3

let with_daemon f =
  let d = boot_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

(* a probe, with its wall time in the report *)
let probe t name f =
  let t0 = now () in
  let ms = f t in
  note t "%s probe: %.1f s" name (now () -. t0);
  ms

(* one pass over the 118 2D catalog instances (157 requests) in 1 s
   per round; the figures are the median over rounds *)
let probe_solve t =
  let cat =
    W_catalog.catalog ()
    |> Array.to_list
    |> List.filter (fun i ->
           match i.W_catalog.entry.Spatial_data.Catalog.inst.S.dims with S.D2 _ -> true | S.D3 _ -> false)
    |> Array.of_list
  in
  median_metrics
    (guarded ~reps:probe_rounds (fun () ->
         with_daemon (fun d -> (solve_family t [| d |] cat ~seed:probe_seed ~seconds:1.0).metrics)))

(* grid-delta's own 256^2 and 40^3 chains, one segment per round; the
   figures pool the rounds' deltas. With 128^2 and 24^3 chains a delta
   took 2 ms, mostly wake-ups, and its p50 spread 0.22 over ten seeds;
   grid-delta's own 5 ms deltas spread 0.08. The probe measures only
   the deltas, so its chains are seeded with no exact stage and a 50 ms
   deadline: with the catalog's options seeding takes 1 s a chain. The
   repair engine recolors a seeded chain to its canonical coloring, so
   the seeding Solve's coloring does not reach the deltas. *)
let probe_delta t =
  let grids = W_delta.grids ~seed:probe_seed () in
  let opts = { W_catalog.opts with Proto.budget = Some 0; deadline_s = Some 0.05 } in
  delta_figures t
    (List.init probe_rounds (fun _ ->
         with_daemon (fun d ->
             delta_run t d (W_delta.seed_chains ~opts d grids) ~seed:probe_seed ~seconds:W_delta.segment_s)))

let probe_offline t =
  let g = W_offline.grids ~side2:256 ~side3:24 ~seed:probe_seed () in
  let cfg = W_offline.stkde_config ~scale:0.25 ~voxels:(32, 32, 16) ~seed:probe_seed () in
  median_metrics
    (guarded ~reps:offline_probe_rounds (fun () ->
         let _, ms, _ = offline_family t g cfg in
         ms))

(* ---- the workloads --------------------------------------------------------- *)

type outcome = {
  e2e : metric list;
  layers : metric list;  (** traced runs only *)
  tally : tally;
}

let served_share t =
  m "served_share" "share" (Float.of_int (t.attempted - t.failed) /. Float.of_int (max 1 t.attempted))

(* reconciliation and tracing overhead, shared by the traced runs *)
let accounting t ~explained ~e2e ~overhead =
  note t "layers explain %.1f%% of %.3f s end to end; tracing overhead %+.1f%%"
    (100.0 *. explained /. e2e) e2e (100.0 *. overhead);
  [
    m "reconcile.explained_share" "share" (explained /. e2e);
    m "reconcile.unattributed_share" "share" (1.0 -. (explained /. e2e));
    m "trace.overhead_share" "share" overhead;
  ]

let mean xs = List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

(* The daemon's peak RSS is set by exact-stage solves, whose memory
   grows with the time they search; so readings are taken with the
   steal guard, and the figure is their mean: single readings fall on
   either side of a collection, and a median would flip between the
   two. *)
let memory_reps = 3

let pass_daemons = 3

let catalog_solve ~seed ~seconds ~trace =
  let t = { attempted = 0; failed = 0; notes = [] } in
  let delta = probe t "delta" probe_delta in
  let offline = probe t "offline" probe_offline in
  let setup () =
    let t0 = now () in
    let cat = W_catalog.catalog () in
    let gen_s = now () -. t0 in
    (cat, gen_s, boot_daemon ())
  in
  let setup_s, (cat, gen_s, d) = timed_setups ~setup ~dispose:(fun (_, _, d) -> stop_daemon d) in
  (* The pass runs on the set-up daemon and [pass_daemons - 1] more,
     each serving its own share of the instances, so the costs pool
     that many draws of how daemon and client land on the CPUs. A pass
     voided by steal is taken again on fresh daemons, whose caches are
     as empty. *)
  let first = ref (Some d) in
  let pass () =
    let d = match !first with Some d -> first := None; d | None -> boot_daemon () in
    let ds = Array.init pass_daemons (fun k -> if k = 0 then d else boot_daemon ()) in
    Fun.protect ~finally:(fun () -> Array.iter stop_daemon ds) (fun () ->
        let r = solve_family t ds cat ~seed ~seconds in
        let stat d = stat_float (stats_json d) [ "server"; "cache"; "evictions" ] in
        ( r,
          Array.fold_left (fun a d -> Float.max a (peak_rss_mb d)) 0.0 ds,
          Array.fold_left (fun a d -> a +. stat d) 0.0 ds ))
  in
  let r, pass_peak, evictions = List.hd (guarded ~reps:1 pass) in
  let k = ref 0 in
  let peaks =
    guarded ~reps:memory_reps (fun () ->
        incr k;
        let peak, attempted, failed = W_catalog.heavy_peak_mb cat ~seed:((seed * 31) + !k) in
        t.attempted <- t.attempted + attempted;
        t.failed <- t.failed + failed;
        peak)
  in
  note t "memory: highest VmHWM over the pass %.0f MB; on the heavy instances alone %s MB" pass_peak
    (String.concat ", " (List.map (Printf.sprintf "%.0f") peaks));
  let layers =
    if not trace then []
    else begin
      Trace.enable ();
      let late = Stats.tail (Array.to_list (Array.map (fun s -> 1000.0 *. s.W_catalog.late) r.samples)) in
      let ms, explained, e2e = Layers.catalog cat r.samples ~evictions in
      (* no span sits on the measured path: the pass ran untraced *)
      (m "data.generate_s" "s" gen_s :: m "gen.late_tail_ms" "ms" late.value :: ms)
      @ accounting t ~explained ~e2e ~overhead:0.0
    end
  in
  {
    e2e =
      (m "setup_s" "s" setup_s :: r.metrics) @ delta @ offline @ [ m "peak_rss_mb" "MB" (mean peaks); served_share t ];
    layers;
    tally = t;
  }

let delta_daemons = 3

let grid_delta ~seed ~seconds ~trace =
  let t = { attempted = 0; failed = 0; notes = [] } in
  let solve = probe t "solve" probe_solve in
  let offline = probe t "offline" probe_offline in
  let setup () =
    let t0 = now () in
    let grids = W_delta.grids ~seed () in
    let gen_s = now () -. t0 in
    let (d, chains), steal =
      with_steal (fun () ->
          let d = boot_daemon () in
          (d, W_delta.seed_chains d grids))
    in
    ((grids, gen_s, d, chains, steal), now () -. t0)
  in
  (* Each set-up daemon serves a share of the measured time, so the
     figures pool [delta_daemons] draws of how daemon and client land
     on the CPUs. *)
  let setups = List.init delta_daemons (fun _ -> setup ()) in
  let setup_s = Stats.median (List.map snd setups) in
  let share = seconds /. Float.of_int delta_daemons in
  let runs =
    List.mapi
      (fun j ((_, _, d, chains, _), _) ->
        delta_run t d chains ~seed:((seed * 1000) + j) ~seconds:share
          ~keep:(if trace && j = 0 then 64 else 0))
      setups
  in
  (* Most of a daemon's peak comes from seeding the chains (two 64k
     solves with an exact stage). Every set-up daemon seeds the same
     chains, so the figure is the mean over those that no steal burst
     hit while seeding. *)
  let peaks =
    unstolen
      (List.map
         (fun ((_, _, d, _, steal), _) ->
           let p = peak_rss_mb d in
           stop_daemon d;
           (p, steal))
         setups)
  in
  note t "memory: set-up daemons' VmHWM %s MB" (String.concat ", " (List.map (Printf.sprintf "%.0f") peaks));
  let delta = delta_figures t runs in
  let grids, gen_s = match setups with ((g, gen_s, _, _, _), _) :: _ -> (g, gen_s) | [] -> assert false in
  let layers =
    if not trace then []
    else begin
      Trace.enable ();
      let ms, explained, e2e = Layers.delta grids (List.hd runs).samples in
      (* no span sits on the measured path: the deltas ran untraced *)
      (m "data.generate_s" "s" gen_s :: ms) @ accounting t ~explained ~e2e ~overhead:0.0
    end
  in
  {
    e2e =
      (m "setup_s" "s" setup_s :: solve) @ delta @ offline @ [ m "peak_rss_mb" "MB" (mean peaks); served_share t ];
    layers;
    tally = t;
  }

let offline_sweep ~seed ~seconds ~trace =
  let t = { attempted = 0; failed = 0; notes = [] } in
  let solve = probe t "solve" probe_solve in
  let delta = probe t "delta" probe_delta in
  let setup () =
    let g = W_offline.grids ~seed () in
    (g, W_offline.stkde_config ~seed ())
  in
  let setup_s, (g, cfg) = timed_setups ~setup ~dispose:ignore in
  (* repeat the whole sweep while the time budget lasts; medians over
     the rounds no steal burst hit *)
  let t_end = now () +. seconds in
  let rec rounds acc =
    let t0 = now () in
    let acc = with_steal (fun () -> offline_family t g cfg) :: acc in
    if now () +. (now () -. t0) > t_end then acc else rounds acc
  in
  let all = rounds [] in
  let kept = unstolen all in
  let sums = List.sort_uniq compare (List.map (fun ((p, _, _), _) -> p.W_offline.maxcolor_sum) all) in
  gate (List.length sums = 1) "sweep maxcolor sum differs between repeats of the same seed";
  let offline = median_metrics (List.map (fun (_, ms, _) -> ms) kept) in
  note t "offline: %d rounds, %d kept" (List.length all) (List.length kept);
  let peak = Option.value ~default:nan (Stats.vmhwm_mb "self") in
  let layers =
    if not trace then []
    else begin
      Trace.enable ();
      let t0 = now () in
      let gt = setup () in
      let gen_s = now () -. t0 in
      let p, _, (ooc_s, o) = offline_family t (fst gt) (snd gt) in
      gate (sums = [ p.W_offline.maxcolor_sum ]) "traced sweep maxcolor sum differs from the untraced one";
      let explained =
        Trace.self_total
          ("cert.check" :: "kernel.tiled" :: "kernel.par"
          :: List.map (fun a -> "core.algo." ^ a.Ivc.Algo.name) Ivc.Algo.all)
      in
      (* here spans do sit on the measured path: the traced sweep
         against the untraced rounds' median *)
      let untraced = Stats.median (List.map (fun (p, _, _) -> p.W_offline.sweep_s) kept) in
      (m "data.generate_s" "s" gen_s :: Layers.offline (fst gt) o ~ooc_solve_s:ooc_s ~vertices:p.W_offline.vertices)
      @ accounting t ~explained ~e2e:p.W_offline.sweep_s
          ~overhead:((p.W_offline.sweep_s -. untraced) /. untraced)
    end
  in
  {
    e2e = (m "setup_s" "s" setup_s :: solve) @ delta @ offline @ [ m "peak_rss_mb" "MB" peak; served_share t ];
    layers;
    tally = t;
  }

(* ---- output ------------------------------------------------------------------ *)

(* Every per-layer metric, so a traced run names all of them; a layer a
   workload does not exercise reports 0 (it did no work). *)
let per_layer =
  [
    ("server.outside_solve_p50_ms", "ms"); ("server.outside_solve_tail_ms", "ms");
    ("server.shed_share", "share"); ("server.degraded_share", "share");
    ("cache.hit_share", "share"); ("cache.evictions", "count");
    ("proto.reply_bytes", "B"); ("proto.encode_us", "us"); ("proto.decode_us", "us");
    ("client.verify_us", "us");
    ("driver.solve_p50_ms", "ms"); ("driver.solve_tail_ms", "ms"); ("driver.overrun_ms", "ms");
    ("driver.optimal_share", "share"); ("cert.ns_per_vertex", "ns");
    ("exact.solve_ms", "ms"); ("exact.alloc_mb", "MB");
    ("grid.zorder_ms", "ms"); ("core.lf_order_ms", "ms"); ("core.clique_order_ms", "ms");
  ]
  @ List.map (fun a -> ("core.algo_ms." ^ a.Ivc.Algo.name, "ms")) Ivc.Algo.all
  @ [
      ("kernel.ff_mvps", "Mv/s"); ("kernel.tiled_mvps", "Mv/s"); ("kernel.par_mvps", "Mv/s");
      ("kernel.par_seam_share", "share"); ("kernel.steal_share", "share");
      ("kernel.alloc_b_per_vertex", "B");
      ("incremental.apply_p50_us", "us"); ("incremental.apply_tail_us", "us");
      ("incremental.resolved_share", "share"); ("incremental.front_cells", "count");
      ("wal.append_us", "us"); ("wal.op_bytes", "B");
      ("ooc.solve_s", "s"); ("ooc.verify_s", "s"); ("ooc.spill_mb", "MB"); ("ooc.halo_mb", "MB");
      ("ooc.halo_hit_share", "share"); ("ooc.resident_tiles", "count");
      ("stkde.color_ms", "ms"); ("stkde.parallel_s", "s"); ("stkde.sequential_s", "s");
      ("stkde.speedup", "ratio"); ("data.generate_s", "s"); ("gen.late_tail_ms", "ms");
      ("reconcile.explained_share", "share"); ("reconcile.unattributed_share", "share");
      ("trace.overhead_share", "share");
    ]

let json_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        let v = if Float.is_finite x.value then Printf.sprintf "%.17g" x.value else "null" in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name v x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or traced per-layer run");
      ("--serve", Arg.Set_string serve_exe, "PATH the ivc_serve executable");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad a)) usage;
  let run =
    match !workload with
    | "catalog-solve" -> catalog_solve
    | "grid-delta" -> grid_delta
    | "offline-sweep" -> offline_sweep
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if not (Sys.file_exists !serve_exe) then begin
    prerr_endline ("daemon executable not found: " ^ !serve_exe);
    exit 2
  end;
  (* a killed benchmark still stops its daemons (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  mkdir_p scratch_root;
  match run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
  | o ->
      List.iter print_endline (List.rev o.tally.notes);
      Printf.printf "steal: %d measurements voided (limit %.0f%% of CPU time)\n" !voided (100.0 *. steal_limit);
      let metrics =
        if !trace = 0 then o.e2e
        else
          List.map
            (fun (name, unit_) ->
              match List.find_opt (fun x -> x.name = name) o.layers with
              | Some x -> x
              | None -> m name unit_ 0.0)
            per_layer
      in
      List.iter (fun x -> Printf.printf "%-32s %14.4f %s\n" x.name x.value x.unit_) metrics;
      if !trace = 1 then begin
        let path = Printf.sprintf "%s/trace-%s-%d.json" scratch_root !workload !seed in
        Trace.write path;
        Printf.printf "spans written to %s\n" path
      end;
      json_line ~correct:true ~attempted:o.tally.attempted ~failed:o.tally.failed metrics
  | exception Gate msg ->
      Printf.printf "correctness gate failed: %s\n" msg;
      json_line ~correct:false ~attempted:1 ~failed:1 [];
      exit 1
