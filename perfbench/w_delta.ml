(* grid-delta: closed-loop Delta traffic against two repair chains. *)

open Common
module S = Ivc_grid.Stencil
module Delta = Ivc_incremental.Delta

let max_weight = 20

(* The two chains: a 2D grid of 256^2 and a 3D grid of 40^3 cells
   (about 64k each), uniform seeded weights. *)
let grids ~seed () =
  Trace.span "data.generate" (fun () ->
      let r = Stats.rng seed in
      let w () = Stats.int r (max_weight + 1) in
      let g2 = S.init2 ~x:256 ~y:256 (fun _ _ -> w ()) in
      let g3 = S.init3 ~x:40 ~y:40 ~z:40 (fun _ _ _ -> w ()) in
      [ g2; g3 ])

(* Mostly 1-cell bumps, one delta in eight a 16-cell batch; no Extend,
   which grows the grid and would make latency drift with run length.
   No bump drives a weight negative. *)
let batch_every = 8

let gen_delta r (inst : S.t) =
  let n = S.n_vertices inst in
  let bump w =
    let dw = 1 + Stats.int r 3 in
    if Stats.int r 2 = 0 && w >= dw then -dw else dw
  in
  if Stats.int r batch_every = 0 then
    Delta.Batch
      (Array.init 16 (fun _ ->
           let v = Stats.int r n in
           (v, bump (S.weight inst v))))
  else
    let v = Stats.int r n in
    Delta.Bump { v; dw = bump (S.weight inst v) }

type chain = { mutable inst : S.t; mutable fp : int64 }

let seed_chain c ~opts inst =
  match Client.solve ~timeout_s:60.0 c ~opts inst with
  | Ok (Proto.Solution s) -> (
      match Client.verify_solution inst s with
      | Ok s -> { inst; fp = s.Proto.fingerprint }
      | Error e -> raise (Gate ("uncertified seeding Solve: " ^ Client.error_to_string e)))
  | Ok _ | Error _ -> raise (Gate "chain seeding Solve failed")

type sample = {
  chain : int;  (** index of the chain the delta went to *)
  delta : Delta.t;
  fp : int64;  (** chain key the delta targeted *)
  rtt_s : float;
  resolved : bool;  (** the server fell back to a full sweep *)
  kept : (S.t * Proto.solution) option;
      (** the mirror after the delta and the reply, kept for the first
          [keep] deltas only: a reply carries the whole coloring *)
}

(* One delta on chain [k] over its own connection [c]: send it, wait
   for the reply, verify the reply against the client's own
   [apply_pure] mirror. None when the server did not answer with a
   solution. *)
let step c chain ~k ~keep r =
  let delta = gen_delta r chain.inst in
  let mirror =
    match Delta.apply_pure chain.inst delta with
    | Ok m -> m
    | Error e -> raise (Gate ("generated an invalid delta: " ^ e))
  in
  let expect_fp = Delta.chain_fp chain.fp delta in
  let t0 = now () in
  let resp = Client.delta ~timeout_s:30.0 c ~fp:chain.fp delta in
  let rtt_s = now () -. t0 in
  match resp with
  | Ok (Proto.Solution s) -> (
      match Client.verify_delta ~expect_fp mirror s with
      | Ok s ->
          let sample =
            {
              chain = k;
              delta;
              fp = chain.fp;
              rtt_s;
              resolved = s.Proto.provenance = "resolved";
              kept = (if keep then Some (mirror, s) else None);
            }
          in
          chain.inst <- mirror;
          chain.fp <- s.Proto.fingerprint;
          Some sample
      | Error e -> raise (Gate ("uncertified Delta reply: " ^ Client.error_to_string e)))
  | Ok _ | Error _ -> None

(* Set-up: generate both grids and seed one chain per grid with a
   Solve on its own connection, with the catalog's request options. *)
let seed_chains ?(opts = W_catalog.opts) d grids =
  List.map (fun g -> with_client d (fun c -> seed_chain c ~opts g)) grids

(* The measured time is cut into segments of this length. A segment
   that a steal burst hit is voided, and the figures pool the kept
   ones. *)
let segment_s = 1.0

type run = {
  samples : sample list;  (** every delta, voided segments included, in the order sent *)
  segments : ((sample list * float) * float) list;
      (** each segment's deltas and length, tagged with its steal share *)
  failed : int;
}

(* Each chain has its own connection; one thread takes the chains in
   turn, so each connection is a closed loop and the two never contend
   inside the daemon or in the collector. Runs for [seconds]; [keep]
   replies per chain are kept for the traced replay. *)
let measure ?(keep = 0) d chains ~seed ~seconds =
  let conns = List.map (fun _ -> connect d) chains in
  Fun.protect ~finally:(fun () -> List.iter Client.close conns) @@ fun () ->
  let lanes =
    List.mapi (fun k (c, ch) -> (k, c, ch, Stats.rng ((seed * 7919) + k))) (List.combine conns chains)
  in
  let failed = ref 0 and n = ref 0 in
  let segment until =
    let t0 = now () and out = ref [] in
    while !failed = 0 && now () < until do
      List.iter
        (fun (k, c, ch, r) ->
          if !failed = 0 then
            match step c ch ~k ~keep:(!n < keep) r with
            | Some s -> out := s :: !out
            | None -> incr failed)
        lanes;
      incr n
    done;
    (List.rev !out, now () -. t0)
  in
  let count = max 1 (int_of_float (Float.round (seconds /. segment_s))) in
  let t0 = now () in
  let rec segments i acc =
    if i > count then List.rev acc
    else
      let until = t0 +. (seconds *. Float.of_int i /. Float.of_int count) in
      segments (i + 1) (with_steal (fun () -> segment until) :: acc)
  in
  let segments = segments 1 [] in
  { samples = List.concat_map (fun ((s, _), _) -> s) segments; segments; failed = !failed }

(* The figures of one or more runs: every run's kept segments pooled. *)
let figures runs =
  let all = List.concat_map (fun r -> r.segments) runs in
  let kept = unstolen all in
  let pooled = List.concat_map fst kept in
  let elapsed = List.fold_left (fun a (_, e) -> a +. e) 0.0 kept in
  let rtt = List.map (fun s -> 1e6 *. s.rtt_s) pooled in
  let tl = Stats.tail rtt in
  let samples = List.concat_map (fun r -> r.samples) runs in
  let resolved = List.length (List.filter (fun s -> s.resolved) samples) in
  ( [
      m "delta_p50_us" "us" (Stats.median rtt);
      m "delta_tail_us" "us" tl.value;
      m "delta_ops_s" "1/s" (Float.of_int (List.length pooled) /. elapsed);
    ],
    Printf.sprintf
      "delta: %d verified deltas over %d daemons, %d resolved by full sweep; figures from %d of %d segments, %d deltas in %.1f s, tail is p%g (%d beyond)"
      (List.length samples) (List.length runs) resolved (List.length kept) (List.length all)
      (List.length pooled) elapsed tl.pct tl.beyond )
