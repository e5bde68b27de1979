(* Benchmark entry point:

     pnabench --workload catalogue|campaign|wire --seed N --seconds S
              --trace 0|1 [--pna PATH] [--out DIR]

   prints a host fingerprint line, a short report, and as its last line
   one JSON object {correct, attempted, failed, metrics}. With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer
   ones (plus the tracing overhead), and the recorded spans are written
   to DIR at exit. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and pna = ref "_build/default/bin/pna_cli.exe" in
  let out = ref "perfbench/_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "catalogue | campaign | wire");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measurement length");
      ("--trace", Arg.Set_int trace, "1: the traced per-layer run");
      ("--pna", Arg.Set_string pna, "path of the pna CLI binary");
      ("--out", Arg.Set_string out, "directory for spans and scratch files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pnabench --workload W --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fmt.pr "host %s@." (Bstat.host_json ());
  let m : Bstat.metrics = ref [] in
  let seconds = !seconds and seed = !seed in
  let attempted, failed =
    match (!workload, traced) with
    | "catalogue", false -> Wl_catalogue.run ~seed ~seconds m
    | "catalogue", true -> Wl_catalogue.traced ~seed ~seconds m
    | "campaign", false -> Wl_campaign.run ~pna:!pna ~out:!out ~seed ~seconds m
    | "campaign", true -> Wl_campaign.traced ~pna:!pna ~out:!out ~seed ~seconds m
    | "wire", false -> Wl_wire.run ~pna:!pna ~out:!out ~seed ~seconds m
    | "wire", true -> Wl_wire.traced ~pna:!pna ~out:!out ~seed ~seconds m
    | w, _ ->
      Fmt.epr "unknown workload %S@." w;
      exit 2
  in
  if traced then
    Bstat.write_spans
      (Filename.concat !out (Printf.sprintf "spans-%s-%d.json" !workload seed));
  Fmt.pr "%s@."
    (Bstat.result_line ~correct:(failed = 0) ~attempted ~failed m)
