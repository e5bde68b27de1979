(* Workload `campaign`: the E17 generative campaign, Fuzz.campaign ~n
   ~seed, in-process on the default engine. Each genome costs about a
   dozen fresh loads (sanitized and plain), a sanitizer attach, one
   static-checker pass, generation and build; the heap allocator and the
   service are nearly absent. *)

module R = Pna_rand.Rand
module Fuzz = Pna_gen.Fuzz
module Oracle = Pna_gen.Oracle
module Genome = Pna_gen.Genome
module Build = Pna_gen.Build
module Checker = Pna_analysis.Placement_checker
module Config = Pna_defense.Config
module Driver = Pna_attacks.Driver

(* Genomes per campaign batch: long enough that one batch's rate is a
   steady figure, short enough for several batches in a run. *)
let batch = 100

(* The campaign's own genome stream — the derivation Fuzz.campaign and
   `pna generate` use — first occurrences only, as the campaign runs
   them. *)
let genomes ~seed =
  let rng = R.create (seed lxor 0x9e47f3) in
  let seen = Hashtbl.create batch in
  List.filter
    (fun g ->
      let id = Genome.id g in
      if Hashtbl.mem seen id then false
      else (
        Hashtbl.add seen id ();
        true))
    (List.init batch (fun _ -> Genome.generate rng))

(* The summary exactly as `pna fuzz` prints it: counts, statuses,
   checker scores and every divergence fingerprint. *)
let summary (s : Fuzz.stats) =
  Fmt.str "%a@." Fuzz.pp s
  ^ String.concat ""
      (List.map
         (fun (d : Fuzz.divergence) ->
           Fmt.str "divergence [%s] %s@.  first %s, minimized %s, %d hit(s)@."
             (Oracle.dkind_label d.Fuzz.c_kind)
             d.Fuzz.c_detail
             (Genome.id d.Fuzz.c_genome)
             (Genome.id d.Fuzz.c_minimized)
             d.Fuzz.c_hits)
         s.Fuzz.f_divergences)

(* The reference summary comes from a separate `pna fuzz` process on the
   other engine, so it shares neither state nor execution path with the
   in-process campaign it is compared against. *)
let cli_reference ~pna ~out ~seed =
  let path = Filename.concat out (Printf.sprintf "fuzz-ref-%d.txt" seed) in
  let fd = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let env =
    Array.append [| "PNA_ENGINE=bytecode" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"PNA_ENGINE=" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let pid =
    Unix.create_process_env pna
      [| pna; "fuzz"; "--seed"; string_of_int seed; "-n"; string_of_int batch |]
      env Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, st = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin path In_channel.input_all in
  (st = Unix.WEXITED 0, text)

let setup ~pna ~out ~seed =
  let runs = List.init 3 (fun _ -> Bstat.time (fun () -> cli_reference ~pna ~out ~seed)) in
  let (ok, reference), _ = List.hd runs in
  let steady = List.for_all (fun ((ok', r), _) -> ok' && r = reference) runs in
  (Bstat.median (List.map snd runs), (if ok && steady then Some reference else None))

let run ~pna ~out ~seed ~seconds (m : Bstat.metrics) =
  let setup_s, reference = setup ~pna ~out ~seed in
  if reference = None then Fmt.epr "campaign: reference `pna fuzz` failed or varied@.";
  let gs = genomes ~seed in
  let rates = ref [] and lat = ref [] and generated = ref 0 and busy = ref 0. in
  let attempted = ref 0 and failed = ref 0 and cycles = ref 0 in
  let t_end = Bstat.now () +. seconds in
  while !cycles = 0 || Bstat.now () < t_end do
    let s, dt = Bstat.time (fun () -> Fuzz.campaign ~n:batch ~seed ()) in
    rates := (float_of_int s.Fuzz.f_generated /. dt) :: !rates;
    generated := !generated + s.Fuzz.f_generated;
    busy := !busy +. dt;
    attempted := !attempted + batch;
    if Some (summary s) <> reference || s.Fuzz.f_escaped > 0 then begin
      failed := !failed + batch;
      Fmt.epr "campaign: seed %d summary differs from the reference@." seed
    end;
    (* the same genomes one at a time: the campaign's per-genome step *)
    List.iter
      (fun g ->
        let r, dt = Bstat.time (fun () -> Oracle.run g) in
        lat := dt :: !lat;
        incr attempted;
        if r.Oracle.o_escaped then incr failed)
      gs;
    incr cycles
  done;
  let a = Bstat.sorted !lat in
  Fmt.pr "campaign: %d cycle(s) of %d genomes; percentiles over %d genome \
          runs, highest resolvable p%g; batch rates %s genomes/s@."
    !cycles batch (Array.length a) (Bstat.resolvable_pct (Array.length a))
    (String.concat " " (List.rev_map (Printf.sprintf "%.1f") !rates));
  Bstat.metric m "setup_s" "s" setup_s;
  Bstat.metric m "peak_rss_mb" "MB" (Bstat.peak_rss_mb ());
  Bstat.metric m "item_p50_ms" "ms" (Bstat.pct a 50. *. 1e3);
  Bstat.metric m "item_tail_ms" "ms" (Bstat.pct a 90. *. 1e3);
  (* all the campaigns' genomes over all their time: the rate a user of
     the campaign sees *)
  Bstat.metric m "items_per_s" "1/s" (float_of_int !generated /. !busy);
  (!attempted, !failed)

(* -- traced run -------------------------------------------------------- *)

let traced ~pna ~out ~seed ~seconds (m : Bstat.metrics) =
  let _, reference = setup ~pna ~out ~seed in
  let s = Fuzz.campaign ~n:batch ~seed () in
  let failed = ref (if Some (summary s) = reference then 0 else batch) in
  let attempted = ref batch and runs = ref 0 in
  Layers.set "gen.kept_ratio"
    (float_of_int s.Fuzz.f_kept /. float_of_int (max 1 s.Fuzz.f_generated));
  let t_end = Bstat.now () +. seconds in
  while !runs = 0 || Bstat.now () < t_end do
    let rng = R.create (seed lxor 0x9e47f3) in
    for _ = 1 to batch do
      let g = Bstat.with_span "gen.generate" (fun () -> Genome.generate rng) in
      let a = Bstat.with_span "gen.build" (fun () -> Build.scenario g) in
      let r = Bstat.with_span "gen.oracle" (fun () -> Oracle.run g) in
      ignore
        (Bstat.with_span "analysis.checker" (fun () ->
             Checker.analyze ~interproc:true a.Pna_attacks.Catalog.program));
      incr attempted;
      if
        r.Oracle.o_escaped
        || not
             (Layers.against_driver ~sanitize:true ~config:Config.none
                ~engine:Driver.env_engine a)
      then incr failed;
      incr runs
    done
  done;
  Layers.per_pass ~passes:!runs Layers.count_names;
  Layers.finish_exec ~passes:!runs;
  Layers.finish_steps ();
  Layers.finish_cover ();
  Layers.set_span_median "gen.generate_us" ~span:"gen.generate" 1e6;
  Layers.set_span_median "gen.build_us" ~span:"gen.build" 1e6;
  Layers.set_span_median "gen.oracle_ms" ~span:"gen.oracle" 1e3;
  Layers.set_span_median "analysis.checker_ms" ~span:"analysis.checker" 1e3;
  Layers.emit m;
  (!attempted, !failed)
