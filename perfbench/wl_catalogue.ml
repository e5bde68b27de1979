(* Workload `catalogue`: every paper attack x {none, full} x {interp,
   bytecode}, a fresh Driver.run per scenario, in-process on one domain
   — what a researcher running the defense matrix waits for. The pass
   total is dominated by the heap allocator (the OOM attack's walks),
   the median scenario by load/map. Budgets are the defaults: the DoS
   and OOM grinders run to their natural end. *)

module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Outcome = Pna_minicpp.Outcome
module Interp = Pna_minicpp.Interp
module Vm = Pna_minicpp.Vm
module Compile = Pna_minicpp.Compile

let engines : Driver.engine list = [ `Interp; `Bytecode ]
let configs = [ Config.none; Config.full ]

let scenarios =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun c -> List.map (fun e -> (a, c, e)) engines)
        configs)
    All.attacks

(* The seed fixes the order scenarios run in within a pass. *)
let shuffled ~seed =
  let a = Array.of_list scenarios in
  Bstat.shuffle (Pna_rand.Rand.create seed) a;
  Array.to_list a

(* E1: with defenses off every attack wins. E8 under the full stack:
   only the two equal-size placements get through. *)
let expected_success (a : Catalog.t) (c : Config.t) =
  c.Config.name = "none"
  || List.mem a.Catalog.id [ "L06-copyloop"; "L10-internal" ]

let status = Layers.status

(* What both engines and every pass must agree on. *)
let fingerprint (r : Driver.result) =
  ( status r.Driver.outcome,
    r.Driver.verdict.Catalog.success,
    r.Driver.verdict.Catalog.detail,
    r.Driver.outcome.Outcome.steps )

(* Scenarios hold closures, so tables key them by name. *)
let key ((a : Catalog.t), (c : Config.t), e) =
  (a.Catalog.id, c.Config.name, Driver.engine_name e)

let run_one (a, config, engine) = Driver.run ~config ~sanitize:false ~engine a

(* Compile every program and load every (program, config) image once:
   the cold work the first pass pays and later passes do not. *)
let setup_once () =
  List.iter
    (fun (a : Catalog.t) ->
      ignore (Compile.compile a.Catalog.program);
      List.iter (fun config -> ignore (Interp.load ~config a.Catalog.program)) configs)
    All.attacks

let setup () =
  let ts = List.init 5 (fun _ -> snd (Bstat.time setup_once)) in
  List.iter (fun (a : Catalog.t) -> ignore (Vm.load a.Catalog.program)) All.attacks;
  Bstat.median ts

(* The first pass is the reference: every verdict as E1/E8 expect and
   the two engines in agreement. Every later run of a scenario must
   reproduce its reference exactly. Returns the number of wrong runs. *)
let check_reference reference =
  List.fold_left
    (fun bad ((a, c, e) as s) ->
      let other = match e with `Interp -> `Bytecode | `Bytecode -> `Interp in
      let fp = Hashtbl.find_opt reference (key s) in
      let success = Option.fold ~none:false ~some:(fun (_, ok, _, _) -> ok) fp in
      if success = expected_success a c && Hashtbl.find_opt reference (key (a, c, other)) = fp
      then bad
      else begin
        Fmt.epr "catalogue: %s wrong or the engines disagree@."
          (let id, c, e = key s in String.concat "/" [ id; c; e ]);
        bad + 1
      end)
    0 scenarios

let run ~seed ~seconds (m : Bstat.metrics) =
  let setup_s = setup () in
  let order = Array.of_list (shuffled ~seed) in
  let n = Array.length order in
  let reference = Hashtbl.create n and times = Hashtbl.create n in
  let failed = ref 0 and i = ref 0 in
  let t_end = Bstat.now () +. seconds in
  (* round-robin over the shuffled scenarios until time is up, and at
     least one whole pass *)
  while !i < n || Bstat.now () < t_end do
    let s = order.(!i mod n) in
    let r, dt = Bstat.time (fun () -> run_one s) in
    let k = key s in
    Hashtbl.replace times k (dt :: Option.value ~default:[] (Hashtbl.find_opt times k));
    (match Hashtbl.find_opt reference k with
    | None -> Hashtbl.add reference k (fingerprint r)
    | Some fp -> if fp <> fingerprint r then incr failed);
    incr i;
    if !i = n then failed := !failed + check_reference reference
  done;
  (* one pass: each scenario at its mean over its runs, so a partial
     last pass weighs no scenario twice *)
  let pass_s = Hashtbl.fold (fun _ ts acc -> acc +. Bstat.mean ts) times 0. in
  let a = Bstat.sorted (Hashtbl.fold (fun _ ts acc -> ts @ acc) times []) in
  Fmt.pr "catalogue: %.2f passes, %d runs; one pass %.3f s (sum of \
          per-scenario means); percentiles over %d runs, highest \
          resolvable p%g@."
    (float_of_int !i /. float_of_int n) !i pass_s (Array.length a)
    (Bstat.resolvable_pct (Array.length a));
  Bstat.metric m "setup_s" "s" setup_s;
  Bstat.metric m "peak_rss_mb" "MB" (Bstat.peak_rss_mb ());
  Bstat.metric m "item_p50_ms" "ms" (Bstat.pct a 50. *. 1e3);
  Bstat.metric m "item_tail_ms" "ms" (Bstat.pct a 90. *. 1e3);
  Bstat.metric m "items_per_s" "1/s" (float_of_int n /. pass_s);
  (!i, !failed)

(* -- traced run -------------------------------------------------------- *)

let l23_oom_blocks () =
  match List.find_opt (fun (a : Catalog.t) -> a.Catalog.id = "L23-oom") All.attacks with
  | None -> 0
  | Some a ->
    let m = Interp.load ~config:Config.none a.Catalog.program in
    let ints, strings = a.Catalog.mk_input m in
    Pna_machine.Machine.set_input ~ints ~strings m;
    ignore (Interp.run m a.Catalog.program ~entry:a.Catalog.entry);
    (* count the in-band block headers ([size:4][status:4] before each
       payload) from the heap base to the first unused header *)
    let limit = Pna_machine.Machine.(heap_base + default_heap_size) in
    let rec walk addr n =
      if addr + 8 > limit then n
      else
        let size = Driver.u32 m addr in
        if size <= 0 || addr + 8 + size > limit then n
        else walk (addr + 8 + size) (n + 1)
    in
    walk Pna_machine.Machine.heap_base 0

let traced ~seed ~seconds (m : Bstat.metrics) =
  ignore (setup ());
  let failed = ref 0 and attempted = ref 0 and passes = ref 0 in
  let t_end = Bstat.now () +. seconds in
  while !passes = 0 || Bstat.now () < t_end do
    List.iter
      (fun (a, config, engine) ->
        incr attempted;
        if not (Layers.against_driver ~config ~engine a) then incr failed;
        if !passes = 0 then begin
          ignore
            (Bstat.with_span "attacks.prepare" (fun () ->
                 Driver.prepare ~config ~sanitize:false ~engine a));
          if engine = `Bytecode && config == Config.none then
            ignore
              (Bstat.with_span "minicpp.compile" (fun () ->
                   Compile.compile a.Catalog.program))
        end)
      (shuffled ~seed);
    incr passes
  done;
  let passes = !passes in
  Layers.finish_exec ~passes;
  Layers.per_pass ~passes Layers.count_names;
  Layers.finish_steps ();
  Layers.finish_cover ();
  Layers.set_span_median "attacks.prepare_ms" ~span:"attacks.prepare" 1e3;
  Layers.set_span_median "minicpp.compile_us" ~span:"minicpp.compile" 1e6;
  let blocks = l23_oom_blocks () in
  let _, small_us, _ = Layers.heap_probe ~blocks:16 ~reps:200 in
  let filled, malloc_us, free_us = Layers.heap_probe ~blocks ~reps:200 in
  Layers.set "machine.heap.l23oom_blocks" (float_of_int filled);
  Layers.set "machine.heap.malloc_us.small" small_us;
  Layers.set "machine.heap.malloc_us.l23oom" malloc_us;
  Layers.set "machine.heap.free_us.l23oom" free_us;
  Layers.emit m;
  (!attempted, !failed)
