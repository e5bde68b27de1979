(* Workload `wire`: a `pna serve-tcp` server in its own process, driven
   open-loop at two fixed offered rates. Requests draw catalogue keys
   (attack x config x engine, 116 of them — far more than one worker's
   16-entry prepared cache) from a seeded Zipf law, and a fixed share
   are first-seen generated scenarios the server registered from a
   seeded corpus. Unlike `catalogue`, each key loads once; after that
   come rewinds, replica thaws and memo hits. Hot keys exercise the
   socket loop, pool hand-off and memo lookup (p50); evicted and cold
   keys exercise thaw, load and the image store (tail and memory). *)

module R = Pna_rand.Rand
module Catalog = Pna_attacks.Catalog
module Driver = Pna_attacks.Driver
module All = Pna_attacks.All
module Config = Pna_defense.Config
module Service = Pna_service.Service
module Frame = Pna_net.Frame
module Client = Pna_net.Client
module Loadgen = Pna_net.Loadgen
module Genome = Pna_gen.Genome
module Build = Pna_gen.Build
module Corpus = Pna_gen.Corpus

(* Offered rates, requests per second, measured on a 2-core Xeon host
   whose speed drifts between modes up to 1.5x apart. [lo] sits well
   under the server's capacity; [hi] as near the knee as the host's slow
   mode allows without shedding: there, 1000 req/s already shed a few
   requests (p99 50-65 ms), while in the fast mode shedding began near
   2000 req/s. *)
let lo_rate = 250.
let hi_rate = 600.

(* Share of requests that name a generated scenario never requested
   before. Each cold image stays in the server's image store (~2 MiB),
   so this share bounds a run's memory growth. *)
let cold_share = 0.015

(* Zipf exponent of the key popularity law. *)
let zipf_s = 1.0

(* A reply later than this misses the latency limit; goodput counts
   only replies within it. *)
let limit_ms = 25.

type key = { attack : Catalog.t; config : Config.t; engine : Driver.engine }

let catalogue_keys =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun config ->
          List.map (fun engine -> { attack = a; config; engine }) [ `Interp; `Bytecode ])
        [ Config.none; Config.full ])
    All.attacks

let req_of ~corr k =
  {
    Frame.rq_corr = corr;
    rq_attack = k.attack.Catalog.id;
    rq_config = k.config.Config.name;
    rq_chaos_seed = None;
    rq_max_steps = None;
    rq_sanitize = false;
    rq_engine = k.engine;
    rq_trace = None;
  }

(* The server clamps an unset deadline to its default step cap, which
   is the interpreter's default budget; the in-process mirror uses the
   same, as E16's expected-signature check does. *)
let max_steps = 2_000_000

(* The in-process verdict for a key: its reply signature and step count. *)
let expected_sig k =
  let r =
    Driver.run ~config:k.config ~max_steps ~sanitize:false ~engine:k.engine k.attack
  in
  ( Loadgen.signature (Frame.rep_of_reply (Service.reply_of_result r)),
    r.Driver.outcome.Pna_minicpp.Outcome.steps )

(* -- the request stream -------------------------------------------------- *)

type plan = { due : float array; keys : key array }

(* Poisson arrivals at [rate] for [dur] seconds; each a Zipf draw over a
   seeded ranking of the catalogue keys, or with probability
   [cold_share] the next unrequested generated scenario. *)
let plan ~rng ~ranking ~cdf ~cold ~rate ~dur =
  let due = ref [] and keys = ref [] and t = ref 0. in
  let draw () =
    let u = R.float rng in
    let lo = ref 0 and hi = ref (Array.length cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    ranking.(!lo)
  in
  let continue = ref true in
  while !continue do
    t := !t -. (log (1. -. R.float rng) /. rate);
    if !t >= dur then continue := false
    else begin
      due := !t :: !due;
      keys :=
        (if R.float rng < cold_share then
           match Queue.take_opt cold with Some k -> k | None -> draw ()
         else draw ())
        :: !keys
    end
  done;
  { due = Array.of_list (List.rev !due); keys = Array.of_list (List.rev !keys) }

let zipf_cdf n =
  let w = Array.init n (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

(* -- the server process --------------------------------------------------- *)

type server = { pid : int; port : int }

let children : int list ref = ref []

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) s.pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

(* The port from the server's "serving on HOST:PORT" line, once that line
   is complete. *)
let find_port log =
  let text = try In_channel.with_open_bin log In_channel.input_all with Sys_error _ -> "" in
  let complete = List.rev (List.tl (List.rev (String.split_on_char '\n' text))) in
  List.find_map
    (fun l -> try Scanf.sscanf l "pna: serving on %_s@:%d" Option.some with _ -> None)
    complete

(* Start a server and wait until it answers a ping: the set-up a user of
   the wire front end pays (process start, corpus registration, bind). *)
let start_server ~pna ~out ~corpus ~idx =
  let log = Filename.concat out (Printf.sprintf "server-%d.log" idx) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process pna
      [| pna; "serve-tcp"; "--jobs"; string_of_int (Bstat.nproc ()); "-p"; "0";
         "--corpus"; corpus |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  children := pid :: !children;
  let deadline = Bstat.now () +. 60. in
  let rec wait () =
    if Bstat.now () > deadline then failwith "server did not start"
    else
      match find_port log with
      | None -> Unix.sleepf 0.005; wait ()
      | Some port -> (
        match Client.connect ~host:"127.0.0.1" ~port () with
        | Error _ -> Unix.sleepf 0.005; wait ()
        | Ok c ->
          let ok = Client.ping c 1 = Ok () in
          Client.close c;
          if ok then port else (Unix.sleepf 0.005; wait ()))
  in
  { pid; port = wait () }

let connect s =
  match Client.connect ~timeout_s:10. ~host:"127.0.0.1" ~port:s.port () with
  | Ok c -> c
  | Error f -> failwith ("connect: " ^ Client.failure_label f)

(* -- one open-loop phase --------------------------------------------------- *)

type outcome = Pending | Served of string | Refused

type phase = {
  p_plan : plan;
  p_sent : float array;  (** send time, seconds from the phase start *)
  p_recv : float array;
  p_out : outcome array;
  p_dur : float;
}

(* One connection, two threads: this one sends each request when it is
   due, a second receives and matches replies by correlation id. Times
   are taken from when each request was due, so a stalled sender's
   backlog shows as latency; the sender's lateness is reported apart. *)
let phases_run = ref 0

let run_phase ?(traced = false) srv (p : plan) ~dur =
  let n = Array.length p.due in
  (* spans of one request share its id: the phase number and its index *)
  incr phases_run;
  let req i = (!phases_run * 1_000_000) + i in
  let sent = Array.make n nan and recv = Array.make n nan in
  let out = Array.make n Pending in
  let c = connect srv in
  let t0 = Bstat.now () +. 0.01 in
  let receiver =
    Thread.create
      (fun () ->
        let got = ref 0 and alive = ref true in
        while !alive && !got < n do
          let r0 = Bstat.now () in
          let msg = Client.recv_msg c in
          let r1 = Bstat.now () in
          let settle i o =
            if i >= 0 && i < n && out.(i) = Pending then begin
              if traced then Bstat.add_span ~req:(req i) "net.recv_msg" r0 r1;
              recv.(i) <- r1 -. t0;
              out.(i) <- o;
              incr got
            end
          in
          match msg with
          | Ok (Frame.Reply_ok rep) -> settle rep.Frame.rp_corr (Served (Loadgen.signature rep))
          | Ok (Frame.Reply_shed { sh_corr; _ }) -> settle sh_corr Refused
          | Ok (Frame.Reply_error { er_corr; _ }) -> settle er_corr Refused
          | Ok _ -> ()
          | Error _ -> alive := false
        done)
      ()
  in
  Array.iteri
    (fun i due ->
      let wait = t0 +. due -. Bstat.now () in
      if wait > 0. then Thread.delay wait;
      let s0 = Bstat.now () in
      sent.(i) <- s0 -. t0;
      ignore (Client.send_msg c (Frame.Request (req_of ~corr:i p.keys.(i))));
      if traced then Bstat.add_span ~req:(req i) "net.send_msg" s0 (Bstat.now ()))
    p.due;
  Thread.join receiver;
  Client.close c;
  if traced then
    Array.iteri
      (fun i due ->
        if not (Float.is_nan recv.(i)) then
          Bstat.add_span ~req:(req i) "wire.request" (t0 +. due) (t0 +. recv.(i)))
      p.due;
  { p_plan = p; p_sent = sent; p_recv = recv; p_out = out; p_dur = dur }

let latencies ph =
  let l = ref [] in
  Array.iteri
    (fun i due ->
      match ph.p_out.(i) with
      | Served _ -> l := (ph.p_recv.(i) -. due) :: !l
      | _ -> ())
    ph.p_plan.due;
  Bstat.sorted !l

(* Failures: refused, never answered, or a reply whose signature is not
   the in-process verdict for its key. *)
let failures ~expected ph =
  let bad = ref 0 in
  Array.iteri
    (fun i k ->
      match ph.p_out.(i) with
      | Served s when Some s = expected k -> ()
      | _ -> incr bad)
    ph.p_plan.keys;
  !bad

let goodput ~expected ph =
  let good = ref 0 in
  Array.iteri
    (fun i k ->
      match ph.p_out.(i) with
      | Served s
        when Some s = expected k
             && (ph.p_recv.(i) -. ph.p_plan.due.(i)) *. 1e3 <= limit_ms ->
        incr good
      | _ -> ())
    ph.p_plan.keys;
  float_of_int !good /. ph.p_dur

let lag_p99_ms ph =
  let l = ref [] in
  Array.iteri (fun i due -> l := (ph.p_sent.(i) -. due) :: !l) ph.p_plan.due;
  Bstat.pct (Bstat.sorted !l) 99. *. 1e3

(* Closed-loop pipelined requests with at most [window] outstanding —
   under the server's admission cap, so none is shed. *)
let pipelined srv keys ~window =
  let c = connect srv in
  let n = Array.length keys in
  let res = Array.make n None in
  let next = ref 0 and got = ref 0 and alive = ref true in
  let send () =
    if !next < n then begin
      ignore (Client.send_msg c (Frame.Request (req_of ~corr:!next keys.(!next))));
      incr next
    end
  in
  for _ = 1 to window do send () done;
  while !alive && !got < n do
    match Client.recv_msg c with
    | Ok (Frame.Reply_ok rep) ->
      res.(rep.Frame.rp_corr) <- Some (Loadgen.signature rep);
      incr got;
      send ()
    | Ok (Frame.Reply_shed _ | Frame.Reply_error _) -> incr got; send ()
    | Ok _ -> ()
    | Error _ -> alive := false
  done;
  Client.close c;
  res

(* -- set-up ---------------------------------------------------------------- *)

type env = {
  srv : server;
  setup_s : float;
  ranking : key array;
  cdf : float array;
  cold : key Queue.t;
  rng : R.t;
  expected : key -> string option;
  steps : key -> int;
  warm_failed : int;
}

(* [rates]: the offered rate of each phase the run will measure, each
   phase [dur] seconds long. *)
let setup ~pna ~out ~seed ~dur ~rates =
  let rng = R.create (seed lxor 0x31e5) in
  let ranking = Array.of_list catalogue_keys in
  Bstat.shuffle rng ranking;
  (* enough first-seen genomes for every phase, with slack for the
     Poisson draws *)
  let need =
    int_of_float
      (Float.ceil (1.25 *. cold_share *. List.fold_left ( +. ) 0. rates *. dur))
    + 20
  in
  let grng = R.create (seed lxor 0x9e0e) in
  let seen = Hashtbl.create need in
  let gs = ref [] in
  while List.length !gs < need do
    let g = Genome.generate grng in
    let id = Genome.id g in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      gs := g :: !gs
    end
  done;
  let gs = List.rev !gs in
  let corpus = Filename.concat out (Printf.sprintf "corpus-%d.bin" seed) in
  Corpus.save corpus gs;
  let cold = Queue.create () in
  List.iter
    (fun g ->
      Queue.add
        {
          attack = Build.scenario g;
          config = (if R.bool rng then Config.none else Config.full);
          engine = (if R.bool rng then `Interp else `Bytecode);
        }
        cold)
    gs;
  let starts =
    List.init 5 (fun i -> Bstat.time (fun () -> start_server ~pna ~out ~corpus ~idx:i))
  in
  List.iteri (fun i (s, _) -> if i < 4 then stop_server s) starts;
  let srv = fst (List.nth starts 4) in
  let setup_s = Bstat.median (List.map snd starts) in
  (* Warm the server with every catalogue key once, so the measured
     phases see steady state rather than the first full-budget runs of
     the OOM and DoS grinders; meanwhile compute every key's in-process
     verdict. *)
  let warm_keys = Array.of_list catalogue_keys in
  let warm = ref None in
  let th =
    Thread.create (fun () -> warm := Some (pipelined srv warm_keys ~window:32)) ()
  in
  let table = Hashtbl.create 512 in
  let key_id k = (k.attack.Catalog.id, k.config.Config.name, k.engine) in
  List.iter (fun k -> Hashtbl.replace table (key_id k) (expected_sig k)) catalogue_keys;
  Queue.iter (fun k -> Hashtbl.replace table (key_id k) (expected_sig k)) cold;
  Thread.join th;
  let expected k = Option.map fst (Hashtbl.find_opt table (key_id k)) in
  let steps k = Option.fold ~none:max_int ~some:snd (Hashtbl.find_opt table (key_id k)) in
  let warm_failed =
    match !warm with
    | None -> Array.length warm_keys
    | Some res ->
      let bad = ref 0 in
      Array.iteri (fun i s -> if s = None || s <> expected warm_keys.(i) then incr bad) res;
      !bad
  in
  let cdf = zipf_cdf (Array.length ranking) in
  { srv; setup_s; ranking; cdf; cold; rng; expected; steps; warm_failed }

let make_plan e ~rate ~dur =
  plan ~rng:e.rng ~ranking:e.ranking ~cdf:e.cdf ~cold:e.cold ~rate ~dur

let report name ph ~expected =
  let a = latencies ph in
  Fmt.pr "wire %s: %d requests in %.1f s, %d served, %d failed; p50 %.3f ms, \
          p90 %.3f ms, p99 %.3f ms over %d samples (highest resolvable p%g); \
          sender lag p99 %.3f ms@."
    name (Array.length ph.p_plan.due) ph.p_dur (Array.length a)
    (failures ~expected ph) (Bstat.pct a 50. *. 1e3) (Bstat.pct a 90. *. 1e3)
    (Bstat.pct a 99. *. 1e3)
    (Array.length a) (Bstat.resolvable_pct (Array.length a)) (lag_p99_ms ph)

let run ~pna ~out ~seed ~seconds (m : Bstat.metrics) =
  let dur = seconds /. 2. in
  let e = setup ~pna ~out ~seed ~dur ~rates:[ lo_rate; hi_rate ] in
  let lo = run_phase e.srv (make_plan e ~rate:lo_rate ~dur) ~dur in
  let hi = run_phase e.srv (make_plan e ~rate:hi_rate ~dur) ~dur in
  let rss = Bstat.peak_rss_mb ~pid:(string_of_int e.srv.pid) () in
  stop_server e.srv;
  report "lo" lo ~expected:e.expected;
  report "hi" hi ~expected:e.expected;
  let a = latencies lo in
  Bstat.metric m "setup_s" "s" e.setup_s;
  Bstat.metric m "peak_rss_mb" "MB" rss;
  Bstat.metric m "item_p50_ms" "ms" (Bstat.pct a 50. *. 1e3);
  (* p90, not p99: at [lo] the p99 sits among replica thaws queued behind
     one another and swung 5.8-16.3 ms across ten seeds on the 2-core
     host, while p90 holds; the p99s stay on the report lines *)
  Bstat.metric m "item_tail_ms" "ms" (Bstat.pct a 90. *. 1e3);
  Bstat.metric m "items_per_s" "1/s" (goodput ~expected:e.expected hi);
  let n ph = Array.length ph.p_plan.due in
  ( n lo + n hi + List.length catalogue_keys,
    failures ~expected:e.expected lo + failures ~expected:e.expected hi + e.warm_failed )

(* -- traced run -------------------------------------------------------- *)

(* Sum of a metric's samples in a Prometheus text exposition, over every
   label set. *)
let prom text name =
  List.fold_left
    (fun acc l ->
      let n = String.length name in
      if
        String.length l > n
        && String.sub l 0 n = name
        && (l.[n] = ' ' || l.[n] = '{')
      then
        match String.rindex_opt l ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
          | Some v -> acc +. v
          | None -> acc)
        | None -> acc
      else acc)
    0.
    (String.split_on_char '\n' text)

let poll_stats srv =
  let c = connect srv in
  let r = Client.stats c 7 in
  Client.close c;
  match r with Ok text -> text | Error _ -> ""

(* Time the prepared path of one key step by step: thaw a replica from
   its frozen image, rewind after a run, compute the attacker input on
   the rewound image, run, judge. *)
let prepared_steps k =
  let a = k.attack in
  ignore
    (Bstat.with_span "minicpp.load" (fun () ->
         Pna_minicpp.Interp.load ~config:k.config a.Catalog.program));
  let p =
    Bstat.with_span "attacks.prepare" (fun () ->
        Driver.prepare ~config:k.config ~sanitize:false ~engine:k.engine a)
  in
  let img = Driver.freeze p in
  ignore (Bstat.with_span "attacks.thaw" (fun () -> Driver.thaw img));
  ignore (Driver.run_prepared p);
  let m = Bstat.with_span "attacks.rewind" (fun () -> Driver.reset p) in
  let ints, strings =
    Bstat.with_span "attacks.mk_input" (fun () -> a.Catalog.mk_input m)
  in
  Pna_machine.Machine.set_input ~ints ~strings m;
  let o =
    match k.engine with
    | `Interp -> Pna_minicpp.Interp.run m a.Catalog.program ~entry:a.Catalog.entry
    | `Bytecode ->
      Pna_minicpp.Vm.run m (Pna_minicpp.Vm.load a.Catalog.program) ~entry:a.Catalog.entry
  in
  ignore (Bstat.with_span "attacks.check" (fun () -> a.Catalog.check m o))

(* Replay the measured key sequence through an in-process service and
   set its self-reported queue wait and execute time beside the time
   its caller saw. *)
let replay keys =
  let svc = Service.create ~jobs:(Bstat.nproc ()) () in
  let job k = Service.job ~config:k.config ~sanitize:false ~engine:k.engine ~max_steps k.attack in
  ignore (Service.run_batch svc (List.map job catalogue_keys));
  let s0 = Service.stats svc in
  let caller =
    List.map (fun k -> snd (Bstat.time (fun () -> Service.exec svc (job k)))) keys
  in
  let s1 = Service.stats svc in
  Service.shutdown svc;
  let d f = float_of_int (f s1 - f s0) in
  let hits = d (fun s -> s.Service.st_memo_hits) in
  let misses = d (fun s -> s.Service.st_memo_misses) in
  let hist_mean f =
    let (n1, t1), (n0, t0) = (f s1, f s0) in
    if n1 > n0 then (t1 -. t0) /. float_of_int (n1 - n0) else 0.
  in
  let queue_us = hist_mean (fun s -> s.Service.st_queue_wait_us) in
  let exec_us = hist_mean (fun s -> s.Service.st_execute_us) in
  let caller_us = Bstat.mean caller *. 1e6 in
  Layers.set "service.memo_hit_ratio" (hits /. Float.max 1. (hits +. misses));
  Layers.set "service.fresh_loads" (d (fun s -> s.Service.st_fresh_loads));
  Layers.set "service.replica_clones" (d (fun s -> s.Service.st_replica_clones));
  Layers.set "service.snapshot_restores" (d (fun s -> s.Service.st_snapshot_restores));
  Layers.set "service.queue_wait_us" queue_us;
  Layers.set "service.execute_us" exec_us;
  Layers.set "service.caller_us" caller_us;
  Layers.set "service.self_report_gap_us" (caller_us -. (queue_us +. exec_us))

let traced ~pna ~out ~seed ~seconds (m : Bstat.metrics) =
  let dur = seconds /. 3. in
  let e = setup ~pna ~out ~seed ~dur ~rates:[ lo_rate; lo_rate; hi_rate ] in
  (* the same offered load untraced, then traced: the p50 difference is
     the tracing overhead *)
  let lo_u = run_phase e.srv (make_plan e ~rate:lo_rate ~dur) ~dur in
  let stats0 = poll_stats e.srv in
  let lo = run_phase ~traced:true e.srv (make_plan e ~rate:lo_rate ~dur) ~dur in
  let hi = run_phase ~traced:true e.srv (make_plan e ~rate:hi_rate ~dur) ~dur in
  let stats = poll_stats e.srv in
  (* the server's histograms over the traced phases only *)
  let delta_mean name =
    let d suffix = prom stats (name ^ suffix) -. prom stats0 (name ^ suffix) in
    if d "_count" > 0. then d "_sum" /. d "_count" else 0.
  in
  stop_server e.srv;
  List.iter (fun (n, ph) -> report n ph ~expected:e.expected)
    [ ("lo untraced", lo_u); ("lo", lo); ("hi", hi) ];
  let p50 ph = Bstat.pct (latencies ph) 50. in
  Layers.set "trace.overhead_pct" (100. *. (p50 lo -. p50 lo_u) /. p50 lo_u);
  let request_us = delta_mean "pna_net_request_us" in
  let client_us =
    let l = ref [] in
    List.iter
      (fun ph ->
        Array.iteri
          (fun i s ->
            match ph.p_out.(i) with
            | Served _ -> l := (ph.p_recv.(i) -. s) :: !l
            | _ -> ())
          ph.p_sent)
      [ lo; hi ];
    Bstat.mean !l *. 1e6
  in
  Layers.set "net.request_us" request_us;
  Layers.set "net.wire_us" (client_us -. request_us);
  Layers.set "net.shed" (prom stats "pna_net_shed_total" -. prom stats0 "pna_net_shed_total");
  Layers.set "loadgen.lag_p99_ms" (lag_p99_ms hi);
  Fmt.pr "wire server self-report over the traced phases: queue wait %.1f \
          us, execute %.1f us, request %.1f us (means); client send-to-reply \
          %.1f us@."
    (delta_mean "pna_service_queue_wait_us")
    (delta_mean "pna_service_execute_us") request_us client_us;
  (* frame codec, on the measured requests *)
  let keys = Array.to_list lo.p_plan.keys @ Array.to_list hi.p_plan.keys in
  let frames = List.mapi (fun i k -> Frame.Request (req_of ~corr:i k)) keys in
  let encoded, enc_s = Bstat.time (fun () -> List.map Frame.encode frames) in
  let (), dec_s = Bstat.time (fun () -> List.iter (fun b -> ignore (Frame.decode b)) encoded) in
  let nf = float_of_int (max 1 (List.length frames)) in
  Layers.set "net.frame_encode_us" (enc_s /. nf *. 1e6);
  Layers.set "net.frame_decode_us" (dec_s /. nf *. 1e6);
  replay keys;
  (* the prepared path, on the hottest short keys and the first cold ones *)
  let first n l = List.filteri (fun i _ -> i < n) l in
  List.iter prepared_steps
    (first 24 (List.filter (fun k -> e.steps k < 100_000) (Array.to_list e.ranking)));
  List.iter prepared_steps
    (first 24
       (List.filter (fun k -> String.starts_with ~prefix:"gen-" k.attack.Catalog.id) keys));
  Layers.set_span_median "attacks.prepare_ms" ~span:"attacks.prepare" 1e3;
  Layers.set_span_median "attacks.thaw_us" ~span:"attacks.thaw" 1e6;
  Layers.set_span_median "attacks.rewind_us" ~span:"attacks.rewind" 1e6;
  Layers.finish_steps ();
  Layers.emit m;
  let n ph = Array.length ph.p_plan.due in
  ( n lo_u + n lo + n hi,
    failures ~expected:e.expected lo_u + failures ~expected:e.expected lo
    + failures ~expected:e.expected hi + e.warm_failed )
