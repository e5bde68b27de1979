(* The traced run's view of the layers: a scenario rebuilt from its
   public steps (load -> mk_input -> set_input -> run -> check) with a
   span around each call, the layer counters read off the machine
   afterwards, and the per-layer metric table every traced run prints. *)

module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module Machine = Pna_machine.Machine
module Heap = Pna_machine.Heap
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Outcome = Pna_minicpp.Outcome
module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment
module San = Pna_sanitizer.Sanitizer
module Config = Pna_defense.Config

(* Per-layer metrics, in the order BENCHMARK.json lists them. Every
   traced run prints all of them; a layer a workload does not exercise
   reads 0 there (the prediction table in README.md says which layer
   each workload is meant to move). *)
let kinds = [ "data"; "bss"; "heap"; "stack" ]

let names =
  [
    ("minicpp.load_ms", "ms");
    ("attacks.prepare_ms", "ms");
    ("minicpp.compile_us", "us");
    ("minicpp.execute_ms.interp", "ms");
    ("minicpp.execute_ms.bytecode", "ms");
    ("minicpp.steps", "count");
    ("minicpp.ns_per_step.interp", "ns");
    ("minicpp.ns_per_step.bytecode", "ns");
    ("machine.heap.allocs", "count");
    ("machine.heap.frees", "count");
    ("machine.heap.peak_bytes", "bytes");
    ("machine.heap.l23oom_blocks", "count");
    ("machine.heap.malloc_us.small", "us");
    ("machine.heap.malloc_us.l23oom", "us");
    ("machine.heap.free_us.l23oom", "us");
  ]
  @ List.map (fun k -> ("vmem.reads." ^ k, "count")) kinds
  @ List.map (fun k -> ("vmem.writes." ^ k, "count")) kinds
  @ [
      ("vmem.taint_writes", "count");
      ("vmem.faults", "count");
      ("sanitizer.attach_us", "us");
      ("sanitizer.violations", "count");
      ("analysis.checker_ms", "ms");
      ("gen.generate_us", "us");
      ("gen.build_us", "us");
      ("gen.oracle_ms", "ms");
      ("gen.kept_ratio", "ratio");
      ("attacks.rewind_us", "us");
      ("attacks.thaw_us", "us");
      ("attacks.mk_input_us", "us");
      ("attacks.check_us", "us");
      ("service.memo_hit_ratio", "ratio");
      ("service.fresh_loads", "count");
      ("service.replica_clones", "count");
      ("service.snapshot_restores", "count");
      ("service.queue_wait_us", "us");
      ("service.execute_us", "us");
      ("service.caller_us", "us");
      ("service.self_report_gap_us", "us");
      ("net.request_us", "us");
      ("net.wire_us", "us");
      ("net.shed", "count");
      ("net.frame_encode_us", "us");
      ("net.frame_decode_us", "us");
      ("loadgen.lag_p99_ms", "ms");
      ("trace.overhead_pct", "%");
      ("trace.cover_ratio", "ratio");
    ]

(* Values a traced run measured, by name; [emit] fills the rest with 0. *)
let measured : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace measured name v

let add name v =
  Hashtbl.replace measured name
    (v +. Option.value ~default:0. (Hashtbl.find_opt measured name))

let emit (m : Bstat.metrics) =
  List.iter
    (fun (name, unit) ->
      Bstat.metric m name unit
        (Option.value ~default:0. (Hashtbl.find_opt measured name)))
    names

(* Median span duration in the given unit (1e3 for ms, 1e6 for us). *)
let set_span_median name ~span scale =
  match Bstat.durations span with
  | [] -> ()
  | ds -> set name (Bstat.median ds *. scale)

(* -- a scenario rebuilt from its public steps --------------------------- *)

type access = { reads : int array; writes : int array; taint : int; faults : int }

let access_of mem =
  let st = Vmem.access_stats mem in
  let row k = List.assoc k st.Vmem.by_kind in
  let kinds = Segment.[ Data; Bss; Heap; Stack ] in
  {
    reads = Array.of_list (List.map (fun k -> (row k).Vmem.a_reads) kinds);
    writes = Array.of_list (List.map (fun k -> (row k).Vmem.a_writes) kinds);
    taint = Vmem.total_taint_writes mem;
    faults = st.Vmem.faults;
  }

let add_access_delta a0 a1 =
  List.iteri
    (fun i k ->
      add ("vmem.reads." ^ k) (float_of_int (a1.reads.(i) - a0.reads.(i)));
      add ("vmem.writes." ^ k) (float_of_int (a1.writes.(i) - a0.writes.(i))))
    kinds;
  add "vmem.taint_writes" (float_of_int (a1.taint - a0.taint));
  add "vmem.faults" (float_of_int (a1.faults - a0.faults))

let exec_ms = Hashtbl.create 2
let exec_steps = Hashtbl.create 2

(* Load, input, run and judge [a] exactly as [Driver.run] does, one span
   per step, and fold the step counts, heap statistics and Vmem access
   deltas into the counters. Returns the outcome and verdict so the
   caller can assert they equal [Driver.run]'s. *)
let run_steps ?(sanitize = false) ~config ~engine (a : Catalog.t) =
  let en = Driver.engine_name engine in
  let m =
    Bstat.with_span "minicpp.load" (fun () ->
        Interp.load ~config a.Catalog.program)
  in
  let san =
    if sanitize then
      Some
        (Bstat.with_span "sanitizer.attach" (fun () ->
             let s = San.attach ~scenario:a.Catalog.id (Machine.mem m) in
             Machine.attach_sanitizer m (Some s);
             s))
    else None
  in
  let unit_ =
    match engine with
    | `Bytecode ->
      Some (Bstat.with_span "minicpp.vm_load" (fun () -> Vm.load a.Catalog.program))
    | `Interp -> None
  in
  let a0 = access_of (Machine.mem m) in
  let ints, strings =
    Bstat.with_span "attacks.mk_input" (fun () -> a.Catalog.mk_input m)
  in
  Bstat.with_span "machine.set_input" (fun () ->
      Machine.set_input ~ints ~strings m);
  let o, dt =
    Bstat.with_span ("minicpp.execute." ^ en) (fun () ->
        Bstat.time (fun () ->
            match unit_ with
            | Some u -> Vm.run m u ~entry:a.Catalog.entry
            | None -> Interp.run m a.Catalog.program ~entry:a.Catalog.entry))
  in
  Option.iter San.seal san;
  let v = Bstat.with_span "attacks.check" (fun () -> a.Catalog.check m o) in
  let a1 = access_of (Machine.mem m) in
  add_access_delta a0 a1;
  Hashtbl.replace exec_ms en
    (dt +. Option.value ~default:0. (Hashtbl.find_opt exec_ms en));
  Hashtbl.replace exec_steps en
    (o.Outcome.steps + Option.value ~default:0 (Hashtbl.find_opt exec_steps en));
  add "minicpp.steps" (float_of_int o.Outcome.steps);
  let hs = Machine.heap_stats m in
  add "machine.heap.allocs" (float_of_int hs.Heap.allocs);
  add "machine.heap.frees" (float_of_int hs.Heap.frees);
  set "machine.heap.peak_bytes"
    (Float.max (float_of_int hs.Heap.peak)
       (Option.value ~default:0. (Hashtbl.find_opt measured "machine.heap.peak_bytes")));
  Option.iter (fun s -> add "sanitizer.violations" (float_of_int (San.total s))) san;
  (o, v)

let status o = Fmt.str "%a" Outcome.pp_status o.Outcome.status

(* Untraced [Driver.run] time and traced step time, summed over every
   scenario [against_driver] has rebuilt. *)
let untraced_s = ref 0.
let stepped_s = ref 0.

(* Run [a] once through [Driver.run] untraced and once rebuilt from its
   steps under spans; true when status, verdict and step count agree. *)
let against_driver ?(sanitize = false) ~config ~engine (a : Catalog.t) =
  let r, du = Bstat.time (fun () -> Driver.run ~config ~sanitize ~engine a) in
  let (o, v), ds =
    Bstat.time (fun () ->
        Bstat.with_span "scenario" (fun () -> run_steps ~sanitize ~config ~engine a))
  in
  untraced_s := !untraced_s +. du;
  stepped_s := !stepped_s +. ds;
  let ok =
    status o = status r.Driver.outcome
    && v = r.Driver.verdict
    && o.Outcome.steps = r.Driver.outcome.Outcome.steps
  in
  if not ok then
    Fmt.epr "%s/%s/%s: rebuilt run disagrees with Driver.run (%s vs %s)@."
      a.Catalog.id config.Config.name (Driver.engine_name engine) (status o)
      (status r.Driver.outcome);
  ok

(* The traced steps must account for the untraced run: their summed
   spans over the untraced time, and the whole traced run's excess. *)
let step_spans =
  [ "minicpp.load"; "sanitizer.attach"; "minicpp.vm_load"; "attacks.mk_input";
    "machine.set_input"; "minicpp.execute.interp"; "minicpp.execute.bytecode";
    "attacks.check" ]

let finish_cover () =
  if !untraced_s > 0. then begin
    let span_sum =
      List.fold_left
        (fun acc n -> acc +. List.fold_left ( +. ) 0. (Bstat.durations n))
        0. step_spans
    in
    set "trace.cover_ratio" (span_sum /. !untraced_s);
    set "trace.overhead_pct" (100. *. (!stepped_s -. !untraced_s) /. !untraced_s)
  end

(* Median durations of the step spans every rebuilt run records. *)
let finish_steps () =
  set_span_median "minicpp.load_ms" ~span:"minicpp.load" 1e3;
  set_span_median "sanitizer.attach_us" ~span:"sanitizer.attach" 1e6;
  set_span_median "attacks.mk_input_us" ~span:"attacks.mk_input" 1e6;
  set_span_median "attacks.check_us" ~span:"attacks.check" 1e6

(* Execute time (ms per pass) and ns per step, by engine. *)
let finish_exec ~passes =
  List.iter
    (fun en ->
      match (Hashtbl.find_opt exec_ms en, Hashtbl.find_opt exec_steps en) with
      | Some t, Some steps ->
        set ("minicpp.execute_ms." ^ en) (t *. 1e3 /. float_of_int passes);
        if steps > 0 then
          set ("minicpp.ns_per_step." ^ en) (t *. 1e9 /. float_of_int steps)
      | _ -> ())
    [ "interp"; "bytecode" ]

(* Counts accumulated over [passes] identical passes, reported per pass. *)
let per_pass ~passes names =
  List.iter
    (fun n ->
      match Hashtbl.find_opt measured n with
      | Some v -> set n (v /. float_of_int passes)
      | None -> ())
    names

let count_names =
  [ "minicpp.steps"; "machine.heap.allocs"; "machine.heap.frees";
    "vmem.taint_writes"; "vmem.faults"; "sanitizer.violations" ]
  @ List.map (fun k -> "vmem.reads." ^ k) kinds
  @ List.map (fun k -> "vmem.writes." ^ k) kinds

(* -- heap occupancy probe ---------------------------------------------- *)

(* Time one malloc and one free on a simulated heap already holding
   [blocks] live blocks — the occupancy at which the catalogue's OOM
   attack spends its time. Same segment geometry as a loaded machine. *)
let heap_probe ~blocks ~reps =
  let mem = Vmem.create () in
  let base = Machine.heap_base and size = Machine.default_heap_size in
  ignore (Vmem.map mem ~kind:Segment.Heap ~base ~size ~perm:Pna_vmem.Perm.rw);
  let h = Heap.create mem ~base ~size in
  let filled = ref 0 in
  while !filled < blocks && Heap.malloc h 8 <> None do
    incr filled
  done;
  let mallocs = ref [] and frees = ref [] in
  for _ = 1 to reps do
    match Bstat.time (fun () -> Heap.malloc h 8) with
    | Some p, dm ->
      let (), df = Bstat.time (fun () -> Heap.free h p) in
      mallocs := dm :: !mallocs;
      frees := df :: !frees
    | None, _ -> ()
  done;
  (!filled, Bstat.median !mallocs *. 1e6, Bstat.median !frees *. 1e6)
