(* Per-layer figures for the traced run. The daemon's internals are
   reached from outside only: reply fields, the Stats document, and an
   in-process replay of the same public calls on the same seeded
   inputs, each wrapped in a benchmark span. *)

open Common
module S = Ivc_grid.Stencil
module Cert = Ivc_resilient.Cert
module Driver = Ivc_resilient.Driver
module Delta = Ivc_incremental.Delta
module Engine = Ivc_incremental.Engine
module Wal = Ivc_persist.Wal

let ms xs = List.map (fun s -> 1000.0 *. s) xs
let us xs = List.map (fun s -> 1e6 *. s) xs
let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then 0.0 else sum xs /. Float.of_int (List.length xs)
let p50 xs = if xs = [] then 0.0 else Stats.median xs
let tail xs = if xs = [] then 0.0 else (Stats.tail xs).Stats.value
let share k n = if n = 0 then 0.0 else Float.of_int k /. Float.of_int n
let total name = sum (Trace.durations name)

(* Time the codec on a reply actually received: encode it as the server
   did, decode it as the client did. *)
let codec (s : Proto.solution) =
  let body = Trace.span "proto.encode_response" (fun () -> Proto.encode_response (Proto.Solution s)) in
  (match Trace.span "proto.decode_response" (fun () -> Proto.decode_response body) with
  | Ok _ -> ()
  | Error e -> raise (Gate ("decode_response: " ^ e)));
  String.length body

(* Journal [payloads] the way the daemon does: one Wal.append each,
   default fsync. Returns the payload sizes. *)
let journal payloads =
  let dir = fresh_dir "wal" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let w, _ = Wal.open_log ~dir (fun _ _ -> ()) in
      Fun.protect ~finally:(fun () -> Wal.close w) (fun () ->
          List.map
            (fun p ->
              ignore (Trace.span "wal.append" (fun () -> Wal.append w p));
              Float.of_int (String.length p))
            payloads))

let codec_metrics bytes =
  [
    m "proto.reply_bytes" "B" (mean bytes);
    m "proto.encode_us" "us" (p50 (us (Trace.durations "proto.encode_response")));
    m "proto.decode_us" "us" (p50 (us (Trace.durations "proto.decode_response")));
    m "client.verify_us" "us" (p50 (us (Trace.durations "client.verify")));
  ]

let wal_metrics bytes =
  [
    m "wal.append_us" "us" (p50 (us (Trace.durations "wal.append")));
    m "wal.op_bytes" "B" (mean bytes);
  ]

(* ---- catalog-solve ------------------------------------------------------ *)

let catalog cat (samples : W_catalog.sample array) ~evictions =
  let served =
    List.filter_map
      (fun (s : W_catalog.sample) -> Option.map (fun r -> (s, r)) s.reply)
      (Array.to_list samples)
  in
  let fresh = List.filter (fun (_, r) -> not r.Proto.cache_hit) served in
  let inst (s : W_catalog.sample) = cat.(s.idx).W_catalog.entry.Spatial_data.Catalog.inst in
  let bytes =
    List.map
      (fun (s, r) ->
        ignore (Trace.span "client.verify" (fun () -> Client.verify_solution (inst s) r));
        Float.of_int (codec r))
      served
  in
  let deadline = Option.get W_catalog.opts.Proto.deadline_s in
  let budget = Option.get W_catalog.opts.Proto.budget in
  let outcomes =
    List.map
      (fun (s, _) ->
        match
          Trace.span "driver.solve" (fun () ->
              Driver.solve ~deadline_s:deadline ~budget ~improve:false (inst s))
        with
        | Ok o ->
            ignore (Trace.span "cert.check" (fun () -> Cert.check (inst s) o.Driver.starts));
            o
        | Error e -> raise (Gate ("Driver.solve replay: " ^ Cert.to_string e)))
      fresh
  in
  let alloc =
    List.map
      (fun (s, _) ->
        let a0 = Gc.allocated_bytes () in
        ignore
          (Trace.span "exact.solve" (fun () ->
               Ivc_exact.Optimize.solve ~budget ~time_limit_s:deadline (inst s)));
        (Gc.allocated_bytes () -. a0) /. 1048576.0)
      fresh
  in
  let wal_bytes =
    journal
      (List.map
         (fun (s, r) ->
           Proto.encode_op
             (Proto.Op_solved
                {
                  fp = r.Proto.fingerprint;
                  inst = inst s;
                  starts = r.Proto.starts;
                  maxcolor = r.maxcolor;
                  lower_bound = r.lower_bound;
                  provenance = r.provenance;
                  proven_optimal = r.proven_optimal;
                }))
         fresh)
  in
  let outside = List.map (fun ((s : W_catalog.sample), r) -> 1000.0 *. (s.wire_s -. r.Proto.elapsed_s)) served in
  let driver_ms = ms (List.map (fun o -> o.Driver.elapsed_s) outcomes) in
  let n_cert = List.fold_left (fun a (s, _) -> a + S.n_vertices (inst s)) 0 fresh in
  let n = Array.length samples in
  let metrics =
    [
      m "server.outside_solve_p50_ms" "ms" (p50 outside);
      m "server.outside_solve_tail_ms" "ms" (tail outside);
      m "server.shed_share" "share" (share (n - List.length served) n);
      m "server.degraded_share" "share"
        (share (List.length (List.filter (fun (_, r) -> r.Proto.degraded <> None) served)) (List.length served));
      m "cache.hit_share" "share" (share (List.length served - List.length fresh) (List.length served));
      m "cache.evictions" "count" evictions;
      m "driver.solve_p50_ms" "ms" (p50 driver_ms);
      m "driver.solve_tail_ms" "ms" (tail driver_ms);
      m "driver.overrun_ms" "ms"
        (List.fold_left Float.max neg_infinity (List.map (fun t -> t -. (1000.0 *. deadline)) driver_ms));
      m "driver.optimal_share" "share"
        (share (List.length (List.filter (fun o -> o.Driver.proven_optimal) outcomes)) (List.length outcomes));
      m "cert.ns_per_vertex" "ns" (1e9 *. total "cert.check" /. Float.of_int (max 1 n_cert));
      m "exact.solve_ms" "ms" (p50 (ms (Trace.durations "exact.solve")));
      m "exact.alloc_mb" "MB" (List.fold_left Float.max 0.0 alloc);
    ]
    @ codec_metrics bytes @ wal_metrics wal_bytes
  in
  (* what the replayed layers explain of the requests' unloaded round
     trips: the driver for fresh solves, plus codec and journal *)
  let e2e = sum (List.map (fun ((s : W_catalog.sample), _) -> s.wire_s) served) in
  let explained =
    total "driver.solve" +. total "proto.encode_response" +. total "proto.decode_response"
    +. total "wal.append"
  in
  (metrics, explained, e2e)

(* ---- grid-delta ------------------------------------------------------------ *)

let delta (chains0 : S.t list) (samples : W_delta.sample list) =
  let bytes =
    List.filter_map
      (fun (s : W_delta.sample) ->
        Option.map
          (fun (mirror, reply) ->
            let expect_fp = Delta.chain_fp s.fp s.delta in
            ignore (Trace.span "client.verify" (fun () -> Client.verify_delta ~expect_fp mirror reply));
            Float.of_int (codec reply))
          s.kept)
      samples
  in
  (* Engine.apply replayed on each chain's own delta sequence *)
  let outcomes =
    List.concat
      (List.mapi
         (fun k inst0 ->
           let e = Engine.create inst0 in
           List.filter_map
             (fun (s : W_delta.sample) ->
               if s.chain <> k then None
               else
                 match Trace.span "incremental.apply" (fun () -> Engine.apply e s.delta) with
                 | Ok o -> Some o
                 | Error err -> raise (Gate ("Engine.apply replay: " ^ Engine.error_to_string err)))
             samples)
         chains0)
  in
  let fronts =
    List.filter_map
      (fun o ->
        match o.Engine.provenance with
        | Engine.Repaired { front_cells; _ } -> Some (Float.of_int front_cells)
        | Engine.Resolved -> None)
      outcomes
  in
  let resolved = List.length outcomes - List.length fronts in
  let wal_bytes =
    journal
      (List.map (fun (s : W_delta.sample) -> Proto.encode_op (Proto.Op_delta { fp = s.fp; delta = s.delta })) samples)
  in
  let apply = us (Trace.durations "incremental.apply") in
  let metrics =
    [
      m "incremental.apply_p50_us" "us" (p50 apply);
      m "incremental.apply_tail_us" "us" (tail apply);
      m "incremental.resolved_share" "share" (share resolved (List.length outcomes));
      m "incremental.front_cells" "count" (mean fronts);
    ]
    @ codec_metrics bytes @ wal_metrics wal_bytes
  in
  let e2e = sum (List.map (fun (s : W_delta.sample) -> s.rtt_s) samples) in
  let explained =
    total "incremental.apply" +. total "proto.encode_response" +. total "proto.decode_response"
    +. total "wal.append"
  in
  (metrics, explained, e2e)

(* ---- offline-sweep --------------------------------------------------------- *)

(* Single calls into the layers under the sweep, on the 2D grid, plus
   the spans the traced sweep itself recorded ([vertices] certified). *)
let offline ((g2 : S.t), _) (o : Driver.ooc_outcome) ~ooc_solve_s ~vertices =
  let n = S.n_vertices g2 in
  let x, y = match g2.S.dims with S.D2 (x, y) -> (x, y) | S.D3 _ -> assert false in
  let order = Trace.span "grid.zorder" (fun () -> Ivc_grid.Zorder.order2 x y) in
  ignore (Trace.span "core.lf_order" (fun () -> Ivc.Heuristics.largest_first_order g2));
  ignore (Trace.span "core.clique_order" (fun () -> Ivc.Heuristics.clique_order g2));
  let a0 = Gc.allocated_bytes () in
  ignore (Trace.span "kernel.ff_2d" (fun () -> Ivc_kernel.Ff.color_in_order g2 order));
  let alloc = Gc.allocated_bytes () -. a0 in
  ignore (Trace.span "kernel.tiled_2d" (fun () -> Ivc_kernel.Tiles.color g2));
  let _, ps =
    Trace.span "kernel.par_2d" (fun () -> Ivc_kernel.Par_sweep.color ~workers:nproc g2)
  in
  let mvps name = Float.of_int n /. (total name *. 1e6) in
  let st = o.Driver.ooc_stats in
  let par_s = p50 (Trace.durations "stkde.parallel") in
  let seq_s = p50 (Trace.durations "stkde.sequential") in
  [
    m "grid.zorder_ms" "ms" (1000.0 *. total "grid.zorder");
    m "core.lf_order_ms" "ms" (1000.0 *. total "core.lf_order");
    m "core.clique_order_ms" "ms" (1000.0 *. total "core.clique_order");
  ]
  @ List.map
      (fun a ->
        let name = a.Ivc.Algo.name in
        m ("core.algo_ms." ^ name) "ms" (1000.0 *. total ("core.algo." ^ name)))
      Ivc.Algo.all
  @ [
      m "kernel.ff_mvps" "Mv/s" (mvps "kernel.ff_2d");
      m "kernel.tiled_mvps" "Mv/s" (mvps "kernel.tiled_2d");
      m "kernel.par_mvps" "Mv/s" (mvps "kernel.par_2d");
      m "kernel.par_seam_share" "share" (share ps.Ivc_kernel.Par_sweep.seam n);
      m "kernel.steal_share" "share" (share ps.Ivc_kernel.Par_sweep.steals (max 1 ps.tiles));
      m "kernel.alloc_b_per_vertex" "B" (alloc /. Float.of_int n);
      m "cert.ns_per_vertex" "ns" (1e9 *. total "cert.check" /. Float.of_int (max 1 vertices));
      m "ooc.solve_s" "s" ooc_solve_s;
      m "ooc.verify_s" "s" (total "ooc.verify");
      m "ooc.spill_mb" "MB" (Float.of_int st.Ivc_ooc.Ooc.spill_bytes /. 1048576.0);
      m "ooc.halo_mb" "MB" (Float.of_int st.halo_bytes /. 1048576.0);
      m "ooc.halo_hit_share" "share" (share st.halo_hits (st.halo_hits + st.halo_loads));
      m "ooc.resident_tiles" "count" (Float.of_int st.resident_hw);
      m "stkde.color_ms" "ms" (1000.0 *. p50 (Trace.durations "stkde.color"));
      m "stkde.parallel_s" "s" par_s;
      m "stkde.sequential_s" "s" seq_s;
      m "stkde.speedup" "ratio" (if par_s > 0.0 then seq_s /. par_s else 0.0);
    ]
