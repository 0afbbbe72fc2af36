(* Tests of the benchmark's own statistics: the tail rule, seeded
   schedules, the rate search and the VmHWM reader. *)

let fail fmt = Printf.ksprintf failwith fmt

let check name ok = if not ok then fail "FAILED: %s" name else Printf.printf "ok %s\n" name

let floats n f = List.init n (fun i -> f (i + 1))

(* the tail is the highest ladder percentile with >= 10 samples beyond *)
let () =
  let t = Stats.tail (floats 100 Float.of_int) in
  check "100 samples: p90 has exactly 10 beyond" (t.pct = 90.0 && t.beyond = 10 && t.value = 90.0);
  let t = Stats.tail (floats 1000 Float.of_int) in
  check "1000 samples: p99 (p99.5 has only 5 beyond)" (t.pct = 99.0 && t.beyond = 10 && t.value = 990.0);
  let t = Stats.tail (floats 99 Float.of_int) in
  check "99 samples: p80, p90 has 9 beyond" (t.pct = 80.0 && t.beyond >= 10);
  let t = Stats.tail (floats 10_000 Float.of_int) in
  check "10000 samples: p99.9" (t.pct = 99.9 && t.beyond = 10);
  let t = Stats.tail (floats 12 Float.of_int) in
  check "too few samples fall back to the median" (t.pct = 50.0 && t.n = 12);
  check "order does not matter"
    ((Stats.tail (List.rev (floats 100 Float.of_int))).value = 90.0);
  check "median" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0)

(* seeded Poisson schedules reproduce exactly and look Poisson *)
let () =
  let a = Stats.poisson_schedule ~seed:42 ~rate:10.0 5000 in
  let b = Stats.poisson_schedule ~seed:42 ~rate:10.0 5000 in
  let c = Stats.poisson_schedule ~seed:43 ~rate:10.0 5000 in
  check "same seed, same schedule" (a = b);
  check "other seed, other schedule" (a <> c);
  check "increasing" (Array.for_all Fun.id (Array.init 4999 (fun i -> a.(i) < a.(i + 1))));
  let mean_gap = a.(4999) /. 5000.0 in
  check "mean gap is 1/rate" (Float.abs (mean_gap -. 0.1) < 0.005);
  let r = Stats.rng 7 and r' = Stats.rng 7 in
  check "rng reproduces" (List.init 10 (fun _ -> Stats.next64 r) = List.init 10 (fun _ -> Stats.next64 r'))

(* the solve_max_rps search *)
let () =
  let ph ?(backlog = 0.0) rate tail_ms = { Stats.rate; tail_ms; backlog_share = backlog } in
  let limit_ms = 1500.0 in
  check "all pass: the highest rate"
    (Stats.max_rate ~limit_ms [ ph 2.0 100.0; ph 4.0 200.0; ph 8.0 400.0 ] = Some 8.0);
  check "lowest misses: none" (Stats.max_rate ~limit_ms [ ph 2.0 2000.0; ph 4.0 3000.0 ] = None);
  check "tail crossing interpolated"
    (Stats.max_rate ~limit_ms [ ph 4.0 1000.0; ph 2.0 500.0; ph 8.0 2000.0 ] = Some 6.0);
  check "search stops at the first miss"
    (Stats.max_rate ~limit_ms [ ph 2.0 500.0; ph 4.0 2500.0; ph 8.0 1000.0 ] = Some 3.0);
  check "backlog crossing interpolated"
    (Stats.max_rate ~limit_ms [ ph ~backlog:0.25 2.0 100.0; ph ~backlog:0.75 4.0 200.0 ] = Some 3.0);
  check "the earlier crossing wins"
    (Stats.max_rate ~limit_ms [ ph 2.0 1000.0; ph ~backlog:1.0 4.0 2000.0 ] = Some 3.0);
  check "an infinite tail (failed requests) is not interpolated"
    (Stats.max_rate ~limit_ms [ ph 2.0 100.0; ph 4.0 infinity ] = Some 2.0)

(* backlog growth compares the last third with the first *)
let () =
  check "flat backlog" (not (Stats.backlog_grew (List.init 30 (fun _ -> 1))));
  check "growing backlog" (Stats.backlog_grew (List.init 30 (fun i -> i)));
  check "short phases never grow" (not (Stats.backlog_grew [ 0; 100 ]))

(* the VmHWM reader *)
let () =
  let status =
    "Name:\tivc_serve\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
  in
  check "VmHWM in MB" (Stats.vmhwm_mb_of_status status = Some 20.0);
  check "VmHWM missing" (Stats.vmhwm_mb_of_status "Name:\tx\nVmRSS:\t 1 kB\n" = None);
  check "VmHWM garbled" (Stats.vmhwm_mb_of_status "VmHWM:\tlots kB\n" = None);
  check "own VmHWM readable"
    (match Stats.vmhwm_mb "self" with Some mb -> mb > 0.0 | None -> false);
  check "missing process" (Stats.vmhwm_mb "-1" = None)

(* the steal share from /proc/stat's aggregate cpu line *)
let () =
  let stat steal idle =
    Printf.sprintf "cpu  100 0 50 %d 5 0 3 %d 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n" idle steal
  in
  let a = Stats.cpu_ticks_of_stat (stat 10 800) and b = Stats.cpu_ticks_of_stat (stat 60 1250) in
  check "steal and total ticks" (a = Some { Stats.steal = 10; total = 968 });
  check "steal share between readings" (Stats.steal_share a b = 50.0 /. 500.0);
  check "garbled stat" (Stats.cpu_ticks_of_stat "cpu 1 2 x\n" = None);
  check "unreadable stat counts no steal" (Stats.steal_share None b = 0.0);
  check "own stat readable" (Stats.cpu_ticks () <> None)
