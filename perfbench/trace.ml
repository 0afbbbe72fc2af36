(* The benchmark's own span recorder. Spans are taken only around the
   benchmark's calls into the program's public functions, never inside
   the program: name, start, end and parent, kept in an in-memory
   buffer and written out once when the run ends. Recording is off
   unless [enable] was called, and then [span] costs two clock reads
   and one list cons. *)

type span = { id : int; parent : int; name : string; t0 : int64; t1 : int64 }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0
let lock = Mutex.create ()

let enable () = on := true
let now () = Ivc_obs.now_ns ()

(* Time [f ()] as span [name]; the enclosing span (on this thread) is
   its parent. *)
let span name f =
  if not !on then f ()
  else begin
    let id =
      Mutex.protect lock (fun () ->
          let id = !next_id in
          incr next_id;
          id)
    in
    let parent = !current in
    current := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        current := parent;
        Mutex.protect lock (fun () ->
            spans := { id; parent; name; t0; t1 } :: !spans))
      f
  end

let dur_s s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e9

(* All recorded spans named [name], durations in seconds. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (dur_s s) else None) !spans

(* Self time per span: its duration minus the union of its direct
   children's intervals (children never overlap on one thread, so a
   plain sum is the union). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur_s s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s -> (s, dur_s s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans

(* Summed self time of the spans named in [names]. *)
let self_total names =
  List.fold_left
    (fun a (s, self) -> if List.mem s.name names then a +. self else a)
    0.0 (self_times ())

(* The buffer as Chrome trace events, for a trace viewer. *)
let write path =
  let t_base =
    List.fold_left (fun m s -> if Int64.compare s.t0 m < 0 then s.t0 else m)
      Int64.max_int !spans
  in
  let us t = Int64.to_float (Int64.sub t t_base) /. 1e3 in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
            (if i = 0 then "" else ",")
            s.name (us s.t0)
            (us s.t1 -. us s.t0)
            s.id s.parent)
        (List.rev !spans);
      output_string oc "\n]}\n")
