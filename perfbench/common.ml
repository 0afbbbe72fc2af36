(* Plumbing shared by the workloads: clocks, the scratch directory, the
   daemon under test, and the correctness gate. *)

module Server = Ivc_server.Server
module Client = Ivc_server.Client
module Proto = Ivc_server.Proto

let now () = Int64.to_float (Ivc_obs.now_ns ()) /. 1e9

(* A failed correctness gate ends the run: it is never a slow sample. *)
exception Gate of string

let gate ok fmt =
  Printf.ksprintf (fun m -> if not ok then raise (Gate m)) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error _ -> ()

(* Every file the benchmark writes lives under this directory of the
   checkout; paths stay relative so Unix socket names stay short. *)
let scratch_root = ".perfbench_run"

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d =
      Printf.sprintf "%s/%d-%s-%d" scratch_root (Unix.getpid ()) tag !k
    in
    rm_rf d;
    mkdir_p d;
    d

let nproc = Domain.recommended_domain_count ()

(* ---- machine speed ------------------------------------------------------

   The machine's speed drifts by up to 40% between runs and by a
   quarter over tens of seconds, so one offline run can land in a slow
   stretch. A fixed loop owned by the benchmark is timed just before
   and just after each offline timing; the mean of those loop times
   over the loop's reference time is that timing's slowdown, and the
   offline figures are reported scaled to reference speed. A change to
   the program cannot move the loop. The loop allocates nothing: an
   allocation would let the collector charge the benchmark's own heap
   to the machine. Daemon figures are not scaled: the loop does not
   track what socket-and-daemon work sees. *)

let reference_n = 16_384
let reference_src = Array.init reference_n (fun i -> i * 7919 mod 100_003)
let reference_buf = Array.make reference_n 0

(* in-place heapsort of [reference_buf] *)
let reference_loop () =
  let a = reference_buf in
  let sift top n =
    let i = ref top and go = ref true in
    while !go do
      let l = (2 * !i) + 1 in
      if l >= n then go := false
      else begin
        let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(!i) then begin
          let x = a.(c) in
          a.(c) <- a.(!i);
          a.(!i) <- x;
          i := c
        end
        else go := false
      end
    done
  in
  for top = (reference_n / 2) - 1 downto 0 do
    sift top reference_n
  done;
  for last = reference_n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

(* a typical time of the loop on the 2-vCPU reference container; it
   read 2.3 to 3.1 ms there *)
let reference_s = 0.0025

(* the median of three timings of the loop *)
let loop_time () =
  Stats.median
    (List.init 3 (fun _ ->
         Array.blit reference_src 0 reference_buf 0 reference_n;
         let t0 = now () in
         reference_loop ();
         now () -. t0))

(* [f ()], its wall time, and that time at reference speed *)
let at_reference_speed f =
  let before = loop_time () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let slowdown = (before +. loop_time ()) /. (2.0 *. reference_s) in
  (r, wall, wall /. slowdown)

(* ---- stolen CPU time -----------------------------------------------------

   The host steals CPU from the container in bursts of up to a quarter
   of its time, and a burst doubles request latencies. A measurement
   that a burst hit is voided and taken again, never kept as a slow
   sample. *)

(* a phase with more steal than this is voided; outside bursts the
   container loses well under 1% *)
let steal_limit = 0.02

(* [f ()] and the steal share over it *)
let with_steal f =
  let a = Stats.cpu_ticks () in
  let r = f () in
  (r, Stats.steal_share a (Stats.cpu_ticks ()))

(* measurements voided so far, for the run's report *)
let voided = ref 0

(* [reps] measurements [f ()], each under the steal limit. A voided one
   is taken again, up to [reps] extra tries in all; if they run out,
   the least-stolen voided ones fill the gap. *)
let guarded ~reps f =
  let by_steal = List.stable_sort (fun (_, a) (_, b) -> compare a b) in
  let rec go kept stolen tries =
    if List.length kept = reps then List.rev kept
    else if tries = 0 then
      List.rev kept @ List.filteri (fun i _ -> i < reps - List.length kept) (List.map fst (by_steal stolen))
    else
      let r, st = with_steal f in
      if st <= steal_limit then go (r :: kept) stolen (tries - 1)
      else begin
        incr voided;
        go kept ((r, st) :: stolen) (tries - 1)
      end
  in
  go [] [] (2 * reps)

(* Of measurements tagged with their steal share, the ones under the
   limit; if fewer than half are, the least-stolen half. *)
let unstolen tagged =
  let clean = List.filter (fun (_, st) -> st <= steal_limit) tagged in
  let kept =
    if 2 * List.length clean >= List.length tagged then clean
    else
      List.filteri
        (fun i _ -> i < (List.length tagged + 1) / 2)
        (List.stable_sort (fun (_, a) (_, b) -> compare a b) tagged)
  in
  voided := !voided + List.length tagged - List.length kept;
  List.map fst kept

(* ---- the daemon under test -------------------------------------------- *)

let serve_exe = ref "_build/default/bin/ivc_serve.exe"

type daemon = { pid : int; addr : Server.addr; dir : string }

(* daemons not yet stopped; a run that ends early still stops them *)
let live : daemon list ref = ref []

(* The benchmark reads what it needs before it stops a daemon, so the
   stop is a SIGKILL, reaped at once: no graceful-shutdown wait
   inflates the run. *)
let stop_daemon d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  rm_rf d.dir

let () = at_exit (fun () -> List.iter stop_daemon !live)

(* Boot an [ivc_serve] with one solve worker (the generator keeps the
   other core) and a journaling WAL under default fsync, and wait until
   it answers a Ping. *)
let boot_daemon () =
  let dir = fresh_dir "serve" in
  let sock = dir ^ "/d.sock" in
  let out =
    Unix.openfile (dir ^ "/serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let workers = string_of_int (max 1 (nproc - 1)) in
  let argv =
    [| !serve_exe; "--socket"; sock; "--workers"; workers; "--wal-dir"; dir ^ "/wal" |]
  in
  let pid = Unix.create_process argv.(0) argv Unix.stdin out out in
  Unix.close out;
  let addr = Server.Unix_sock sock in
  live := { pid; addr; dir } :: !live;
  let t_end = now () +. 30.0 in
  let rec wait () =
    let pong =
      if not (Sys.file_exists sock) then false
      else
        match Client.connect ~timeout_s:1.0 addr with
        | Error _ -> false
        | Ok c ->
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                Result.is_ok (Client.ping ~timeout_s:1.0 c))
    in
    if pong then ()
    else if now () > t_end then raise (Gate "daemon did not answer Ping within 30 s")
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> raise (Gate ("daemon exited during boot, see " ^ dir ^ "/serve.log")));
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ();
  { pid; addr; dir }

let connect d =
  match Client.connect ~timeout_s:5.0 d.addr with
  | Error e -> raise (Gate ("connect: " ^ Client.error_to_string e))
  | Ok c -> c

let with_client d f =
  let c = connect d in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let peak_rss_mb d =
  match Stats.vmhwm_mb (string_of_int d.pid) with
  | Some mb -> mb
  | None -> raise (Gate "daemon VmHWM unreadable")

let stats_json d =
  with_client d (fun c ->
      match Client.stats ~timeout_s:10.0 c with
      | Ok s -> Ivc_obs.Json.parse s
      | Error e -> raise (Gate ("stats: " ^ Client.error_to_string e)))

let stat_float doc keys =
  let rec dig v = function
    | [] -> Ivc_obs.Json.to_float v
    | k :: rest -> (
        match Ivc_obs.Json.member k v with Some v -> dig v rest | None -> nan)
  in
  dig doc keys


(* ---- results ----------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
