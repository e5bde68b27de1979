(* Shared measurement plumbing for the benchmark: the clock, order
   statistics, the in-memory span recorder, the result line and the host
   fingerprint. Nothing here reaches into the program under test except
   through its public modules. *)

module Clock = Pna_telemetry.Clock

let now () = Int64.to_float (Clock.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* -- order statistics -------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile over an already sorted array, [p] in 0..100. *)
let pct a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median xs = pct (sorted xs) 50.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* The highest of the usual reporting percentiles that still leaves at
   least ten samples beyond it — the tail a run of [n] samples can
   actually resolve. *)
let resolvable_pct n =
  List.fold_left
    (fun best (p, per_mille) -> if n * (1000 - per_mille) >= 10_000 then p else best)
    50. [ (90., 900); (99., 990); (99.9, 999) ]

(* Fisher-Yates, in place, from a seeded generator. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Pna_rand.Rand.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* -- spans --------------------------------------------------------------- *)

(* One record per timed call into a layer: name, start, end and the span
   that caused it. Spans live in memory and are written out once, at
   exit, so recording never touches the file system mid-measurement. *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_req : int;  (** request the span belongs to; 0 outside the wire *)
  sp_name : string;
  sp_t0 : float;
  sp_t1 : float;
}

let spans : span list ref = ref []
let next_id = ref 1
let stack : int list ref = ref []
let span_lock = Mutex.create ()

let with_span name f =
  let id, parent =
    Mutex.protect span_lock (fun () ->
        let id = !next_id in
        incr next_id;
        (id, match !stack with p :: _ -> p | [] -> 0))
  in
  stack := id :: !stack;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    stack := (match !stack with _ :: tl -> tl | [] -> []);
    Mutex.protect span_lock (fun () ->
        spans :=
          { sp_id = id; sp_parent = parent; sp_req = 0; sp_name = name;
            sp_t0 = t0; sp_t1 = t1 }
          :: !spans)
  in
  Fun.protect ~finally:finish f

(* A span of request [req] recorded after the fact, for intervals that
   start and end on different threads (a wire request is sent by one,
   answered on another). *)
let add_span ~req name t0 t1 =
  Mutex.protect span_lock (fun () ->
      let id = !next_id in
      incr next_id;
      spans :=
        { sp_id = id; sp_parent = 0; sp_req = req; sp_name = name; sp_t0 = t0;
          sp_t1 = t1 }
        :: !spans)

(* Durations (seconds) of every recorded span of this name. *)
let durations name =
  List.filter_map
    (fun s -> if s.sp_name = name then Some (s.sp_t1 -. s.sp_t0) else None)
    !spans

(* Chrome trace-event JSON, loadable in Perfetto. *)
let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}\n"
            (if i = 0 then "" else ",")
            s.sp_name (s.sp_t0 *. 1e6)
            ((s.sp_t1 -. s.sp_t0) *. 1e6)
            s.sp_id s.sp_parent s.sp_req)
        (List.rev !spans);
      output_string oc "]}\n")

(* -- metrics and the result line --------------------------------------- *)

type metrics = (string * (float * string)) list ref

let metric (m : metrics) name unit v = m := (name, (v, unit)) :: !m

(* JSON has no NaN: a figure that could not be taken (no samples) reads
   0, and the run that lost its samples has already counted them as
   failed. *)
let json_float v =
  if not (Float.is_finite v) then "0.0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed (m : metrics) =
  let fields =
    List.rev_map
      (fun (name, (v, unit)) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v)
          unit)
      !m
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

(* -- process facts -------------------------------------------------------- *)

let proc_status_kb pid field =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l ->
            let k = String.length field in
            if String.length l > k && String.sub l 0 k = field then
              Scanf.sscanf (String.sub l k (String.length l - k)) " %d" Option.some
            else go ()
        in
        go ())

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  match proc_status_kb pid "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> nan

let nproc () = Domain.recommended_domain_count ()

(* /proc files report a zero length, so read them line by line. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | l -> go (l :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let cpu_model () =
  let rec go = function
    | [] -> "unknown"
    | l :: tl -> (
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = "model name" ->
        String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> go tl)
  in
  go (read_lines "/proc/cpuinfo")

(* Digest of the program's sources under lib/ and bin/: identifies the
   code measured even in a checkout that carries no version-control
   metadata. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.sort compare names;
      Array.to_list names
      |> List.concat_map (fun n ->
             let p = Filename.concat dir n in
             if Sys.is_directory p then walk p
             else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
             then [ p ]
             else [])
  in
  let files = walk "lib" @ walk "bin" in
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun p -> p ^ "\000" ^ Digest.to_hex (Digest.file p)) files)))

(* Only asked of a work tree's own metadata: git would otherwise search
   the parent directories for a repository. *)
let commit () =
  if not (Sys.file_exists ".git") then "none"
  else
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> "none"
  | ic ->
    let l = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when l <> "" -> l
    | _ -> "none")

let host_json () =
  Printf.sprintf
    "{\"nproc\": %d, \"cpu\": %S, \"ocaml\": %S, \"ocamlrunparam\": %S, \"commit\": %S, \"source_digest\": %S}"
    (nproc ()) (cpu_model ()) Sys.ocaml_version
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))
    (commit ()) (source_digest ())
