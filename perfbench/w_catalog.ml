(* catalog-solve: open-loop Solve traffic from the paper's catalog. *)

open Common
module Cat = Spatial_data.Catalog

(* The request options the existing server bench sends: exact budget
   200, no improvement stage, a 1 s deadline. *)
let opts =
  {
    Proto.deadline_s = Some 1.0;
    priority = 10;
    budget = Some 200;
    improve = false;
    use_cache = true;
  }

type inst = { entry : Cat.entry; clique_lb : int }

(* The paper's 2D+3D catalog at the reduced CI scale: 241 instances,
   n from 4 to 16384, every dataset, big Pollen/PollenUS 3D included. *)
let catalog () =
  Trace.span "data.generate" (fun () ->
      Cat.entries_2d ~scale:0.2 ~subsample:6 () @ Cat.entries_3d ~scale:0.2 ~subsample:6 ()
      |> List.map (fun entry ->
             { entry; clique_lb = Ivc.Bounds.clique_lb entry.Cat.inst })
      |> Array.of_list)

type sample = {
  idx : int;  (** catalog index *)
  due : float;
  late : float;  (** send time minus the moment the request was sendable *)
  done_ : float;
  reply : Proto.solution option;  (** None = shed or failed *)
  wire_s : float;  (** client-side request round trip *)
  busy_s : float;  (** send until the connection is free again, verify included *)
}

(* One open-loop phase, one request in flight at a time: request i is
   due at its Poisson time; it goes out as soon as it is due and the
   previous one is answered. The daemons therefore never hold more than
   one request between them, and the open-loop backlog queues in the
   generator, where its wait is still charged to the request: latency
   runs from the due time. Each instance has its own daemon among [ds]
   (index mod their number), one connection each, so a repeat finds its
   instance in that daemon's cache. *)
let phase ds cat ~rate ~seed reqs =
  let n = Array.length reqs in
  let sched = Stats.poisson_schedule ~seed ~rate n in
  let conns = Array.map connect ds in
  Fun.protect ~finally:(fun () -> Array.iter Client.close conns) (fun () ->
      let t0 = now () +. 0.01 in
      let free_at = ref t0 in
      Array.mapi
        (fun i idx ->
          let due = t0 +. sched.(i) in
          let ready = Float.max due !free_at in
          let wait = ready -. now () in
          if wait > 0.0 then Unix.sleepf wait;
          let sent = now () in
          let inst = cat.(idx).entry.Cat.inst in
          let c = conns.(idx mod Array.length conns) in
          let resp = Client.solve ~timeout_s:60.0 c ~opts inst in
          let done_ = now () in
          let reply =
            match resp with
            | Ok (Proto.Solution s) -> (
                match Client.verify_solution inst s with
                | Ok s -> Some s
                | Error e ->
                    raise (Gate ("uncertified Solve reply: " ^ Client.error_to_string e)))
            | Ok (Proto.Shed _) | Ok _ | Error _ -> None
          in
          free_at := now ();
          {
            idx;
            due;
            late = sent -. ready;
            done_;
            reply;
            wire_s = done_ -. sent;
            busy_s = !free_at -. sent;
          })
        reqs)

let latency_ms s =
  match s.reply with Some _ -> 1000.0 *. (s.done_ -. s.due) | None -> infinity

(* A fresh daemon's first requests run cold: page faults, a small heap,
   cold caches. Before a pass, each daemon solves a few small grids
   that are not in the catalog, outside any measurement, with no exact
   stage: with one, eight 32x32 grids took 4 s a daemon. *)
let warm_up d =
  let opts = { opts with Proto.budget = Some 0; deadline_s = Some 0.05 } in
  with_client d (fun c ->
      for k = 1 to 8 do
        let r = Stats.rng k in
        let inst = Ivc_grid.Stencil.init2 ~x:32 ~y:32 (fun _ _ -> Stats.int r 21) in
        match Client.solve ~timeout_s:60.0 c ~opts inst with
        | Ok (Proto.Solution _) -> ()
        | Ok _ | Error _ -> raise (Gate "warm-up Solve failed")
      done)

(* ---- the workload ------------------------------------------------------- *)

let limit_ms = 1500.0

(* One pass over the whole catalog in a seeded order, where every
   fourth request repeats a uniformly drawn earlier one (a cache hit).
   Every seed sends the same instances, so the slow exact-stage 3D
   instances weigh the same in every run. *)
let request_list ~seed n =
  let r = Stats.rng seed in
  let perm = Array.init n Fun.id in
  Stats.shuffle r perm;
  let count = n + (n / 3) in
  let out = Array.make count 0 in
  let next = ref 0 in
  for i = 0 to count - 1 do
    if i mod 4 = 3 then out.(i) <- out.(Stats.int r i)
    else begin
      out.(i) <- perm.(!next mod n);
      incr next
    end
  done;
  out

(* ---- queue model -----------------------------------------------------------

   The latency figures come from a model of a serial FIFO server, not
   from phases driven at those rates. With one request in flight the
   daemons hold at most one request between them, so a request's cost
   does not depend on when it arrived. Latency at any arrival rate then follows from each
   request's cost measured in the driven pass: the generator's send
   lateness, the round trip, and the time until the connection is free
   again (client verify included). The model queues those costs behind
   seeded Poisson arrivals. A failed or shed request keeps its cost but
   has infinite latency. The reported figures are medians over
   [schedules] replays, each with its own arrival times and request
   order, which removes the luck of where the few slow instances land
   in one schedule. *)

type cost = { late_s : float; wire_s : float; busy_s : float; served : bool }

let cost_of s = { late_s = s.late; wire_s = s.wire_s; busy_s = s.busy_s; served = s.reply <> None }

let replay ~cost ~sched =
  let free = ref 0.0 in
  let n = Array.length cost in
  let lat = Array.make n 0.0 and fin = Array.make n 0.0 in
  Array.iteri
    (fun i c ->
      let start = Float.max sched.(i) !free +. c.late_s in
      free := start +. c.busy_s;
      fin.(i) <- !free;
      lat.(i) <- (if c.served then 1000.0 *. (start +. c.wire_s -. sched.(i)) else infinity))
    cost;
  (* requests due but unanswered at each arrival; fin is increasing *)
  let j = ref 0 in
  let backlog =
    List.init n (fun i ->
        while !j < i && fin.(!j) <= sched.(i) do
          incr j
        done;
        i + 1 - !j)
  in
  (Array.to_list lat, backlog)

let schedules = 64

(* The rate the model reports solve_tail_ms (and, in the notes, the
   median) at. It is
   not driven: a driven pass of the catalog at this rate would take
   53 s. Near the driven pass's rate about half the requests queue
   behind a 1 s exact-stage solve, which puts the median on the knife
   edge between queued and not; at this rate the median reads the
   service a typical request gets. *)
let nominal_rate = 6.0

type replayed = { p50_ms : float; tail : Stats.tail; grew_share : float }

let replay_rate ~seed ~cost rate =
  let n = Array.length cost in
  let runs =
    List.init schedules (fun k ->
        let seed = (seed * 1000) + k in
        let c = Array.copy cost in
        Stats.shuffle (Stats.rng seed) c;
        let lat, backlog = replay ~cost:c ~sched:(Stats.poisson_schedule ~seed ~rate n) in
        (Stats.median lat, Stats.tail lat, Stats.backlog_grew backlog))
  in
  let tails = List.map (fun (_, t, _) -> t) runs in
  {
    p50_ms = Stats.median (List.map (fun (p, _, _) -> p) runs);
    tail = { (List.hd tails) with value = Stats.median (List.map (fun t -> t.Stats.value) tails) };
    grew_share =
      Float.of_int (List.length (List.filter (fun (_, _, g) -> g) runs)) /. Float.of_int schedules;
  }

(* the fixed rates searched for solve_max_rps: 1 to ~1000 per second *)
let search_rates = List.init 50 (fun k -> 1.15 ** Float.of_int k)

type measured = {
  samples : sample array;
  metrics : metric list;
  notes : string list;
  failed : int;
}

(* One open-loop pass over [cat] on daemons [ds], at the nominal rate
   that fits the pass into [seconds]. *)
let measure ds cat ~seed ~seconds =
  Array.iter warm_up ds;
  let reqs = request_list ~seed (Array.length cat) in
  let count = Array.length reqs in
  let rate = Float.of_int count /. seconds in
  let samples = phase ds cat ~rate ~seed reqs in
  let served = List.filter_map (fun s -> s.reply) (Array.to_list samples) in
  let failed = count - List.length served in
  let lat = Array.to_list (Array.map latency_ms samples) in
  let real_tail = Stats.tail lat in
  let late = Stats.tail (Array.to_list (Array.map (fun s -> 1000.0 *. s.late) samples)) in
  (* lateness of the generator's own sending loop, not the system's *)
  gate (late.value < 20.0) "generator fell behind: send lateness p%g = %.1f ms" late.pct
    late.value;
  let cost = Array.map cost_of samples in
  let at rate = replay_rate ~seed ~cost rate in
  let nominal = at nominal_rate in
  let ladder =
    List.map
      (fun r ->
        let p = at r in
        { Stats.rate = r; tail_ms = p.tail.value; backlog_share = p.grew_share })
      search_rates
  in
  (* 0 when even 1 request/s misses the limit, e.g. when failures fill
     the tail *)
  let max_rps = Option.value ~default:0.0 (Stats.max_rate ~limit_ms ladder) in
  let lb =
    Array.fold_left
      (fun a s -> match s.reply with Some _ -> a + cat.(s.idx).clique_lb | None -> a)
      0 samples
  in
  let mc = List.fold_left (fun a s -> a + s.Proto.maxcolor) 0 served in
  let grew_at =
    List.filter_map
      (fun p -> if Stats.backlog_grows p then Some (Printf.sprintf "%.1f" p.Stats.rate) else None)
      ladder
  in
  {
    samples;
    failed;
    metrics =
      [
        m "solve_tail_ms" "ms" nominal.tail.value;
        m "solve_max_rps" "1/s" max_rps;
        m "solve_maxcolor_ratio" "ratio" (Float.of_int mc /. Float.of_int (max 1 lb));
      ];
    notes =
      [
        Printf.sprintf
          "solve: %d requests at %.2f/s, %d failed; real pass p50 %.2f ms, tail p%g %.1f ms (n=%d, %d beyond)"
          count rate failed (Stats.median lat) real_tail.pct real_tail.value real_tail.n
          real_tail.beyond;
        Printf.sprintf
          "solve: modelled at %.1f/s, medians of %d replays: p50 %.3f ms (not a metric: it spread up to 0.31 over ten seeds), tail p%g (n=%d each, %d beyond)"
          nominal_rate schedules nominal.p50_ms nominal.tail.pct nominal.tail.n nominal.tail.beyond;
        Printf.sprintf "solve: gen_late_ms p%g = %.3f (n=%d)" late.pct late.value late.n;
        Printf.sprintf "solve: backlog grew (replayed) at rates [%s]" (String.concat " " grew_at);
      ];
  }

(* ---- exact-stage memory ---------------------------------------------------

   The daemon's peak RSS over a pass is set by the few Pollen/PollenUS
   3D instances whose exact stage runs to the deadline, and it is one
   extreme of a noisy process: when the collector runs decides it, and
   one seed read 1.0, 1.5 and 1.6 GB in three passes. So peak_rss_mb is
   measured on exactly those instances (n >= 4096): fresh daemons each
   solve all of them in a seeded order, and the figure is the mean of
   their VmHWMs. The exact stage's memory grows with the time it
   searches, so a stolen CPU moves it too. *)

let heavy cat =
  List.filter
    (fun i ->
      let e = cat.(i).entry in
      (e.Cat.dataset = "Pollen" || e.Cat.dataset = "PollenUS")
      && e.Cat.plane = "xyz"
      && Ivc_grid.Stencil.n_vertices e.Cat.inst >= 4096)
    (List.init (Array.length cat) Fun.id)

(* One fresh daemon solves every heavy instance in an order drawn from
   [seed]. Returns its VmHWM and how many Solves failed. *)
let heavy_peak_mb cat ~seed =
  let order = Array.of_list (heavy cat) in
  Stats.shuffle (Stats.rng seed) order;
  let d = boot_daemon () in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () ->
      let failed =
        with_client d (fun c ->
            Array.fold_left
              (fun failed i ->
                let inst = cat.(i).entry.Cat.inst in
                match Client.solve ~timeout_s:60.0 c ~opts inst with
                | Ok (Proto.Solution s) ->
                    if Result.is_error (Client.verify_solution inst s) then
                      raise (Gate "uncertified Solve reply (memory pass)");
                    failed
                | Ok _ | Error _ -> failed + 1)
              0 order)
      in
      (peak_rss_mb d, Array.length order, failed))
