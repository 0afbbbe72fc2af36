(* Statistics, schedules and probes shared by the benchmark's
   workloads. Everything here is pure (or reads one /proc file), so
   test_stats.ml can pin each rule down. *)

(* ---- seeded randomness -------------------------------------------------

   The benchmark's own generator, independent of the program under
   test: splitmix64, so a schedule or input drawn from a seed is the
   same on every machine and every OCaml version. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.of_int seed }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform in [0, 1) from the top 53 bits *)
let float01 r =
  Int64.to_float (Int64.shift_right_logical (next64 r) 11) *. 0x1p-53

let int r bound = int_of_float (float01 r *. Float.of_int bound)

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Poisson arrivals: [n] due times in seconds from the phase start,
   exponential gaps at [rate] per second. *)
let poisson_schedule ~seed ~rate n =
  let r = rng seed in
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t -. (log (1.0 -. float01 r) /. rate);
      !t)

(* ---- order statistics -------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest rank of percentile [p] in [0, 100] among [n] samples; the
   epsilon keeps 99.9% of 10000 at rank 9990 despite rounding *)
let rank ~n p = int_of_float (Float.ceil ((p /. 100.0 *. Float.of_int n) -. 1e-9))

let rank_value a p =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n p - 1)))

let median xs = rank_value (sorted xs) 50.0

(* The tail of a timing: the highest percentile on this ladder that
   still has at least [min_beyond] samples above its rank. Fewer than
   2 * min_beyond samples have no tail beyond the median. *)
let ladder = [ 99.99; 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 80.0; 75.0; 50.0 ]
let min_beyond = 10

type tail = { pct : float; value : float; n : int; beyond : int }

let beyond ~n p = n - rank ~n p

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let pct =
    match List.find_opt (fun p -> beyond ~n p >= min_beyond) ladder with
    | Some p -> p
    | None -> 50.0
  in
  { pct; value = rank_value a pct; n; beyond = beyond ~n pct }

(* ---- open-loop rate search ---------------------------------------------

   One open-loop phase at a fixed rate. [backlog_share] is the share of
   the phase's schedules whose backlog grew. A failed or shed request
   counts as a miss: its latency is infinite, so it lands in the tail. *)

type phase = { rate : float; tail_ms : float; backlog_share : float }

let backlog_grows p = p.backlog_share > 0.5
let phase_ok ~limit_ms p = (not (backlog_grows p)) && p.tail_ms <= limit_ms

(* The highest rate that meets the latency limit without a growing
   backlog, read off phases run at ascending fixed rates. The search
   stops at the first rate that misses. Between it and the last passing
   rate, the crossing of whichever criterion failed (tail against the
   limit, backlog share against one half) is interpolated linearly, so
   a small shift moves the answer a little rather than a whole rate
   step. An infinite tail crosses at the last passing rate. None when
   the lowest rate already misses. *)
let max_rate ~limit_ms phases =
  let phases = List.sort (fun a b -> compare a.rate b.rate) phases in
  let cross lo hi v_lo v_hi bound =
    if v_hi <= bound || v_hi <= v_lo then None
    else Some (lo +. ((bound -. v_lo) /. (v_hi -. v_lo) *. (hi -. lo)))
  in
  let rec go last = function
    | [] -> Option.map (fun l -> l.rate) last
    | p :: rest when phase_ok ~limit_ms p -> go (Some p) rest
    | p :: _ -> (
        match last with
        | None -> None
        | Some l ->
            let crossings =
              List.filter_map Fun.id
                [
                  cross l.rate p.rate l.tail_ms p.tail_ms limit_ms;
                  cross l.rate p.rate l.backlog_share p.backlog_share 0.5;
                ]
            in
            Some (List.fold_left Float.min p.rate crossings))
  in
  go None phases

(* Backlog growth: the number of requests due but not yet answered,
   sampled at each arrival. It grew when the mean over the last third
   of the phase exceeds the first third's by more than [backlog_slack]
   requests, the queue length one worker clears in normal jitter. *)
let backlog_slack = 4.0

let backlog_grew samples =
  let a = Array.of_list samples in
  let n = Array.length a in
  if n < 6 then false
  else
    let mean lo hi =
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. Float.of_int a.(i)
      done;
      !s /. Float.of_int (hi - lo)
    in
    mean (2 * n / 3) n -. mean 0 (n / 3) > backlog_slack

(* ---- process memory ---------------------------------------------------- *)

(* VmHWM (peak resident set) in MB from the text of /proc/PID/status. *)
let vmhwm_mb_of_status text =
  let lines = String.split_on_char '\n' text in
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = "VmHWM" -> (
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match String.split_on_char ' ' v with
          | kb :: _ -> Option.map (fun k -> Float.of_int k /. 1024.0) (int_of_string_opt kb)
          | [] -> None)
      | _ -> None)
    lines

let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | text -> vmhwm_mb_of_status text
  | exception Sys_error _ -> None

(* ---- stolen CPU time ----------------------------------------------------

   The host steals CPU from the container in bursts. The aggregate
   "cpu" line of /proc/stat counts, in clock ticks, the time every CPU
   spent in each state; the eighth count is steal. A phase's steal
   share is the steal ticks over all ticks between two readings. *)

type cpu_ticks = { steal : int; total : int }

let cpu_ticks_of_stat text =
  match String.split_on_char '\n' text with
  | first :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' first) with
      | "cpu" :: counts -> (
          let counts = List.map int_of_string_opt counts in
          if List.exists Option.is_none counts || List.length counts < 8 then None
          else
            let counts = List.map Option.get counts in
            Some { steal = List.nth counts 7; total = List.fold_left ( + ) 0 counts })
      | _ -> None)
  | [] -> None

let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_all with
  | text -> cpu_ticks_of_stat text
  | exception Sys_error _ -> None

(* steal share between two readings; 0 where /proc/stat is unreadable *)
let steal_share a b =
  match (a, b) with
  | Some a, Some b when b.total > a.total ->
      Float.of_int (b.steal - a.steal) /. Float.of_int (b.total - a.total)
  | _ -> 0.0
