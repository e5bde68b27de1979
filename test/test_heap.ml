(* Tests for the free-list allocator living in simulated memory. *)

open Pna_vmem
module Heap = Pna_machine.Heap
module San = Pna_sanitizer.Sanitizer

let mk ?(size = 0x1000) () =
  let m = Vmem.create () in
  let _ = Vmem.map m ~kind:Segment.Heap ~base:0x10000 ~size ~perm:Perm.rw in
  (m, Heap.create m ~base:0x10000 ~size)

let malloc_exn h n =
  match Heap.malloc h n with
  | Some a -> a
  | None -> Alcotest.fail "unexpected OOM"

let test_malloc_basic () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  let b = malloc_exn h 16 in
  Alcotest.(check bool) "disjoint" true (b >= a + 16 + Heap.header_size);
  Alcotest.(check int) "in_use" 32 (Heap.stats h).Heap.in_use;
  Alcotest.(check int) "allocs" 2 (Heap.stats h).Heap.allocs

let test_size_rounded_to_8 () =
  let _, h = mk () in
  let a = malloc_exn h 5 in
  Alcotest.(check int) "rounded" 8 (Heap.block_size h a)

let test_free_and_reuse () =
  let _, h = mk () in
  let a = malloc_exn h 32 in
  let _b = malloc_exn h 32 in
  Heap.free h a;
  Alcotest.(check int) "in_use drops" 32 (Heap.stats h).Heap.in_use;
  let c = malloc_exn h 32 in
  Alcotest.(check int) "first-fit reuses freed block" a c

let test_split_on_reuse () =
  let _, h = mk () in
  let a = malloc_exn h 64 in
  Heap.free h a;
  let b = malloc_exn h 16 in
  Alcotest.(check int) "reuses the hole" a b;
  Alcotest.(check int) "split keeps size" 16 (Heap.block_size h b);
  (* the remainder is a free block usable by another allocation *)
  let c = malloc_exn h 16 in
  Alcotest.(check int) "tail of the hole" (a + 16 + Heap.header_size) c

let test_coalesce_forward () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  let b = malloc_exn h 16 in
  let _guard = malloc_exn h 16 in
  Heap.free h b;
  Heap.free h a;
  (* a coalesced with b: can serve a request bigger than either *)
  let c = malloc_exn h 40 in
  Alcotest.(check int) "coalesced block reused" a c

let test_coalesce_backward () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  let b = malloc_exn h 16 in
  let _guard = malloc_exn h 16 in
  Heap.free h a;
  Heap.free h b;
  (* b merged back into a: one hole big enough for 40 *)
  let c = malloc_exn h 40 in
  Alcotest.(check int) "backward-coalesced hole reused" a c

let prop_no_adjacent_free_blocks =
  let ops =
    QCheck.(list_of_size (Gen.int_range 1 40) (pair bool (int_range 1 48)))
  in
  QCheck.Test.make ~count:200 ~name:"heap: coalescing leaves no adjacent free blocks"
    ops
    (fun ops ->
      let _, h = mk ~size:0x2000 () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          let n = max 1 n in
          if do_alloc || !live = [] then (
            match Heap.malloc h n with
            | Some a -> live := a :: !live
            | None -> ())
          else
            match !live with
            | a :: rest ->
              Heap.free h a;
              live := rest
            | [] -> ())
        ops;
      let prev_free = ref false in
      let ok = ref true in
      Heap.iter_blocks h (fun _ _ allocated ->
          if (not allocated) && !prev_free then ok := false;
          prev_free := not allocated);
      !ok)

let test_double_free_detected () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  Heap.free h a;
  (match Heap.free h a with
  | () -> Alcotest.fail "double free undetected"
  | exception Heap.Corrupted (_, msg) ->
    Alcotest.(check string) "reason" "double free" msg)

let test_forged_free_magic_detected () =
  (* an overflow that happens to forge the free-status magic into a live
     header makes the block look already-freed: freeing it must be the
     same classified double-free, not a silent list corruption *)
  let m, h = mk () in
  let a = malloc_exn h 16 in
  Vmem.write_u32 m (a - 4) 0xf7eeb10c;
  (match Heap.free h a with
  | () -> Alcotest.fail "forged magic undetected"
  | exception Heap.Corrupted (_, msg) ->
    Alcotest.(check string) "classified as double free" "double free" msg);
  let st = Heap.stats h in
  Alcotest.(check bool) "stats never go negative" true
    (st.Heap.in_use >= 0 && st.Heap.frees >= 0 && st.Heap.leaked >= 0)

let test_corrupted_header_detected () =
  let m, h = mk () in
  let a = malloc_exn h 16 in
  let _b = malloc_exn h 16 in
  (* smash the next block's status word, as a heap overflow would *)
  Vmem.write_u32 m (a + 16 + 4) 0x41414141;
  (match Heap.malloc h 16 with
  | _ -> Alcotest.fail "corruption undetected"
  | exception Heap.Corrupted _ -> ())

let test_oom () =
  let _, h = mk ~size:128 () in
  Alcotest.(check bool) "fits" true (Heap.malloc h 64 <> None);
  Alcotest.(check bool) "oom" true (Heap.malloc h 64 = None)

let test_free_partial_leak_arithmetic () =
  let _, h = mk () in
  let a = malloc_exn h 32 in
  (* GradStudent(32) -> Student(16): 8-byte tail + 8-byte header stranded *)
  let leaked = Heap.free_partial h a 16 in
  Alcotest.(check int) "leaked" 16 leaked;
  Alcotest.(check int) "stats.leaked" 16 (Heap.stats h).Heap.leaked;
  Alcotest.(check int) "tail still accounted in_use" 8 (Heap.stats h).Heap.in_use

let test_free_partial_whole_when_tiny () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  let leaked = Heap.free_partial h a 16 in
  Alcotest.(check int) "no leak when sizes match" 0 leaked;
  Alcotest.(check int) "fully freed" 0 (Heap.stats h).Heap.in_use

let test_live_blocks () =
  let _, h = mk () in
  let a = malloc_exn h 16 in
  let _b = malloc_exn h 16 in
  Alcotest.(check int) "two live" 2 (Heap.live_blocks h);
  Heap.free h a;
  Alcotest.(check int) "one live" 1 (Heap.live_blocks h)

let test_peak_tracking () =
  let _, h = mk () in
  let a = malloc_exn h 64 in
  Heap.free h a;
  let _ = malloc_exn h 16 in
  Alcotest.(check int) "peak is the high-water mark" 64 (Heap.stats h).Heap.peak

(* Random alloc/free sequences maintain allocator invariants. *)
let prop_allocator_invariants =
  let ops =
    QCheck.(list_of_size (Gen.int_range 1 60) (pair bool (int_range 1 48)))
  in
  QCheck.Test.make ~count:200 ~name:"heap: random ops keep blocks disjoint"
    ops
    (fun ops ->
      let _, h = mk ~size:0x2000 () in
      let live = ref [] in
      List.iter
        (fun (do_alloc, n) ->
          let n = max 1 n in
          (* shrinking may drive n to 0 *)
          if do_alloc || !live = [] then (
            match Heap.malloc h n with
            | Some a -> live := (a, Heap.block_size h a) :: !live
            | None -> ())
          else
            match !live with
            | (a, _) :: rest ->
              Heap.free h a;
              live := rest
            | [] -> ())
        ops;
      (* live blocks disjoint and within the arena *)
      let sorted = List.sort compare !live in
      let rec disjoint = function
        | (a, sa) :: ((b, _) :: _ as rest) ->
          a + sa + Heap.header_size <= b + Heap.header_size && disjoint rest
        | _ -> true
      in
      let in_use_ok =
        (Heap.stats h).Heap.in_use
        = List.fold_left (fun acc (_, s) -> acc + s) 0 !live
      in
      disjoint sorted && in_use_ok)

let prop_malloc_alignment =
  QCheck.Test.make ~count:200 ~name:"heap: payloads are 8-aligned"
    QCheck.(int_range 1 64)
    (fun n ->
      let _, h = mk () in
      match Heap.malloc h n with
      | Some a -> a mod 8 = 0
      | None -> false)

(* ---- pinned detection: a smashed header far from the operation ----

   About 40 blocks of 16..48 bytes with a hole at every third one, each
   payload filled with 0x5a. One header (block 5) is then smashed, on a
   page the operations under test do not write: a malloc that fits only
   at the break, and frees of later blocks. Whatever
   the allocator does to find fits and neighbours, the outcome must be
   the one the reference header walk gives — the same (address, reason)
   or the same result. *)

let holey ?(sanitize = false) () =
  let m, h = mk ~size:0x2000 () in
  let b = Array.init 40 (fun i -> malloc_exn h (16 + (8 * (i mod 5)))) in
  Array.iter (fun a -> Vmem.fill m ~dst:a ~len:(Heap.block_size h a) 0x5a) b;
  Array.iteri (fun i a -> if i mod 3 = 1 then Heap.free h a) b;
  if sanitize then Heap.set_sanitizer h (Some (San.attach m));
  (m, h, b)

type smash = Junk_status | Huge_size | Into_payload | Fake_chunk

let smash_name = function
  | Junk_status -> "junk status"
  | Huge_size -> "implausible size"
  | Into_payload -> "size re-routed into a payload"
  | Fake_chunk -> "size re-routed onto a forged free chunk"

(* The forged chunk sits 16 bytes into block 6 and spans to block 9's
   header, so a walk through it resumes on the real chain. *)
let fake_payload b = b.(6) + 16

let apply_smash m b = function
  | Junk_status -> Vmem.write_u32 m (b.(5) - 4) 0x41414141
  | Huge_size -> Vmem.write_u32 m (b.(5) - 8) 0x7ffffff8
  | Into_payload -> Vmem.write_u32 m (b.(5) - 8) 24
  | Fake_chunk ->
    let f = fake_payload b in
    Vmem.write_u32 m (f - 8) (b.(9) - f - Heap.header_size);
    Vmem.write_u32 m (f - 4) 0xf7eeb10c;
    Vmem.write_u32 m (b.(5) - 8) (f - b.(5) - Heap.header_size)

type outcome = Returned of int | Raised of int * string

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Returned v -> Fmt.pf ppf "returned 0x%x" v
      | Raised (a, r) -> Fmt.pf ppf "Corrupted (0x%x, %s)" a r)
    ( = )

let attempt f =
  match f () with
  | v -> Returned v
  | exception Heap.Corrupted (a, r) -> Raised (a, r)

(* What the walk meets first: the smashed header itself, or for the
   payload re-route the 0x5a bytes 8 bytes into block 6. The forged
   chunk is a plausible free block, so nothing is detected. *)
let detected b = function
  | Junk_status -> Some (Raised (b.(5), "bad status word 0x41414141"))
  | Huge_size -> Some (Raised (b.(5), "implausible block size 2147483640"))
  | Into_payload -> Some (Raised (b.(6) + 8, "bad status word 0x5a5a5a5a"))
  | Fake_chunk -> None

let all_smashes = [ Junk_status; Huge_size; Into_payload; Fake_chunk ]

let test_pinned_malloc_at_break () =
  List.iter
    (fun sm ->
      let m, h, b = holey () in
      apply_smash m b sm;
      let got =
        attempt (fun () -> match Heap.malloc h 64 with Some a -> a | None -> -1)
      in
      let want =
        match detected b sm with
        | Some r -> r
        | None -> Returned (fake_payload b)
      in
      Alcotest.check outcome (smash_name sm) want got)
    all_smashes

let test_pinned_free_later () =
  List.iter
    (fun sm ->
      let m, h, b = holey () in
      apply_smash m b sm;
      let merged = b.(33) - b.(31) - Heap.header_size in
      let got = attempt (fun () -> Heap.free h b.(32); 0) in
      let want = Option.value (detected b sm) ~default:(Returned 0) in
      Alcotest.check outcome (smash_name sm) want got;
      if sm = Fake_chunk then
        (* block 32 merged back into the hole at 31 *)
        Alcotest.(check int) "coalesced backward" merged
          (Heap.block_size h b.(31)))
    all_smashes

let test_pinned_free_partial_later () =
  List.iter
    (fun sm ->
      let m, h, b = holey () in
      apply_smash m b sm;
      let got = attempt (fun () -> Heap.free_partial h b.(29) 16) in
      (* 48-byte block: 24-byte tail plus its header stranded *)
      let want = Option.value (detected b sm) ~default:(Returned 32) in
      Alcotest.check outcome (smash_name sm) want got)
    all_smashes

let test_pinned_quarantine_eviction () =
  List.iter
    (fun sm ->
      let m, h, b = holey ~sanitize:true () in
      List.iter
        (fun i -> Heap.free h b.(i))
        [ 9; 11; 12; 14; 15; 17; 18; 20; 21; 23; 24; 26; 27; 29; 30; 32 ];
      Alcotest.(check int) "quarantine full" Heap.quarantine_capacity
        (Heap.quarantined h);
      apply_smash m b sm;
      (* the 17th free evicts block 9, whose release looks for its
         previous neighbour *)
      let got = attempt (fun () -> Heap.free h b.(33); 0) in
      let want = Option.value (detected b sm) ~default:(Returned 0) in
      Alcotest.check outcome (smash_name sm) want got;
      if sm = Fake_chunk then
        (* the walk through the forged chunk ends right at block 9, so
           block 9 (and the hole at 10) merge into the forgery *)
        Alcotest.(check int) "merged into the forged chunk"
          (b.(11) - fake_payload b - Heap.header_size)
          (Heap.block_size h (fake_payload b)))
    all_smashes

(* Chaos bit flips key on the ordinal of each checked access, so with a
   hook armed the allocator must make exactly the reference walk's
   accesses: every header up to the break for a fit found only there. *)
let test_chaos_hook_keeps_the_walk () =
  let m, h, _ = holey () in
  let blocks = ref 0 in
  Heap.iter_blocks h (fun _ _ _ -> incr blocks);
  let header_reads = ref 0 in
  Vmem.set_chaos m
    (Some
       (fun ~access ~addr:_ ~byte ->
         if access = Fault.Read then incr header_reads;
         byte));
  ignore (Heap.malloc h 64);
  Alcotest.(check int) "every header read, byte by byte"
    (!blocks * Heap.header_size) !header_reads

(* A restore rewrites headers without marking pages as touched, so the
   allocator must drop what it knew. Here the break never moves, and the
   only page still marked at the restore holds [x], which the malloc
   had already made live again: its header reads the same before and
   after. [a]'s page was re-checked before the restore made [a] live, so
   only dropping the index on restore keeps the last malloc from handing
   [a] out. *)
let test_restore_drops_index () =
  let m, h = mk ~size:0x2000 () in
  let a = malloc_exn h 16 in
  let fill = List.init 10 (fun _ -> malloc_exn h 64) in
  let x = malloc_exn h 64 in
  let _guard = malloc_exn h 16 in
  let vsnap = Vmem.snapshot m and hsnap = Heap.snapshot h in
  Heap.free h a;
  Heap.free h x;
  Alcotest.(check int) "x reused" x (malloc_exn h 64);
  Vmem.restore m vsnap;
  Heap.restore h hsnap;
  let c = malloc_exn h 16 in
  Alcotest.(check bool) "restored live blocks are not handed out" true
    (not (List.mem c (a :: x :: fill)))

(* ---- index == walk: a differential property ----

   Two heaps take the same random operations. Heap [b] has an identity
   Vmem chaos hook armed, which keeps every one of its calls on the
   reference header walk; heap [a] answers from its block index whenever
   that is sound. Raw header and payload writes, snapshot/restore and
   sanitizer attach interleave with the allocator calls. After every
   step both must have returned the same value or raised the same
   exception, and hold equal statistics and byte-equal heap segments. *)

type hop =
  | H_malloc of int
  | H_free of int  (** index into the addresses seen so far *)
  | H_free_raw of int  (** an arbitrary 8-aligned payload address *)
  | H_free_partial of int * int
  | H_poke_header of int * bool * int  (** target, status word?, value pick *)
  | H_poke_payload of int * int * int
  | H_snapshot
  | H_restore
  | H_attach

let pp_hop ppf = function
  | H_malloc n -> Fmt.pf ppf "malloc %d" n
  | H_free i -> Fmt.pf ppf "free #%d" i
  | H_free_raw k -> Fmt.pf ppf "free raw %d" k
  | H_free_partial (i, n) -> Fmt.pf ppf "free_partial #%d %d" i n
  | H_poke_header (i, st, v) ->
    Fmt.pf ppf "poke %s #%d pick %d" (if st then "status" else "size") i v
  | H_poke_payload (i, o, v) -> Fmt.pf ppf "poke payload #%d+%d = %d" i o v
  | H_snapshot -> Fmt.string ppf "snapshot"
  | H_restore -> Fmt.string ppf "restore"
  | H_attach -> Fmt.string ppf "attach sanitizer"

let hop_gen =
  let open QCheck.Gen in
  frequency
    [
      (8, map (fun n -> H_malloc n) (int_range 1 96));
      (6, map (fun i -> H_free i) nat);
      (1, map (fun k -> H_free_raw k) (int_range 0 200));
      (3, map2 (fun i n -> H_free_partial (i, n)) nat (int_range 1 64));
      (1, map3 (fun i st v -> H_poke_header (i, st, v)) nat bool (int_range 0 9));
      (3, map3 (fun i o v -> H_poke_payload (i, o, v)) nat (int_range 0 15) nat);
      (1, return H_snapshot);
      (1, return H_restore);
      (1, return H_attach);
    ]

let heap_base = 0x10000
let diff_size = 0x1800

type side = {
  m : Vmem.t;
  h : Heap.t;
  mutable snap : (Vmem.snapshot * Heap.snapshot) option;
}

let side ~walk =
  let m, h = mk ~size:diff_size () in
  if walk then Vmem.set_chaos m (Some (fun ~access:_ ~addr:_ ~byte -> byte));
  { m; h; snap = None }

(* Header values a smash might leave: the three status magics, junk, a
   size nudged by a few words either way, and one past the heap. *)
let header_value ~status ~cur pick =
  if status then
    [| 0xa110ca7e; 0xf7eeb10c; 0x9afe110c; 0x41414141; 0 |].(pick mod 5)
  else
    match pick mod 5 with
    | 0 -> cur + 8
    | 1 -> max 0 (cur - 8)
    | 2 -> cur + 24
    | 3 -> 0x41414141
    | _ -> diff_size

let step seen (x : side) op =
  let pick i = match !seen with [] -> heap_base + 8 | l -> List.nth l (i mod List.length l) in
  match op with
  | H_malloc n -> (
    match Heap.malloc x.h n with Some a -> a | None -> -1)
  | H_free i -> Heap.free x.h (pick i); 0
  | H_free_raw k -> Heap.free x.h (heap_base + 8 + (8 * k)); 0
  | H_free_partial (i, n) -> Heap.free_partial x.h (pick i) n
  | H_poke_header (i, status, v) ->
    let p = pick i in
    let cur = Vmem.read_u32 x.m (p - 8) in
    Vmem.write_u32 x.m (if status then p - 4 else p - 8)
      (header_value ~status ~cur v);
    0
  | H_poke_payload (i, o, v) -> Vmem.write_u32 x.m (pick i + o) v; 0
  | H_snapshot ->
    x.snap <- Some (Vmem.snapshot x.m, Heap.snapshot x.h);
    0
  | H_restore ->
    (match x.snap with
    | Some (vs, hs) ->
      Vmem.restore x.m vs;
      Heap.restore x.h hs
    | None -> ());
    0
  | H_attach -> Heap.set_sanitizer x.h (Some (San.attach x.m)); 0

let heap_image (x : side) =
  let seg = Option.get (Vmem.find_segment x.m heap_base) in
  (Bytes.to_string seg.Segment.bytes, Bytes.to_string seg.Segment.taint)

let prop_index_matches_walk =
  QCheck.Test.make ~count:300 ~name:"heap: index answers exactly as the walk"
    QCheck.(make ~print:(Fmt.to_to_string (Fmt.Dump.list pp_hop))
              Gen.(list_size (int_range 1 150) hop_gen))
    (fun ops ->
      let a = side ~walk:false and b = side ~walk:true in
      let seen = ref [] in
      List.for_all
        (fun op ->
          let run x =
            match step seen x op with
            | v -> Ok v
            | exception e -> Error (Printexc.to_string e)
          in
          let ra = run a and rb = run b in
          (match (op, ra) with
          | H_malloc _, Ok p when p > 0 -> seen := p :: !seen
          | _ -> ());
          let same =
            ra = rb
            && Heap.stats a.h = Heap.stats b.h
            && Heap.quarantined a.h = Heap.quarantined b.h
            && heap_image a = heap_image b
          in
          if not same then
            QCheck.Test.fail_reportf "diverged at %a: %s vs %s" pp_hop op
              (match ra with Ok v -> string_of_int v | Error e -> e)
              (match rb with Ok v -> string_of_int v | Error e -> e);
          same)
        ops)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "heap",
    [
      t "malloc basic" test_malloc_basic;
      t "sizes rounded to 8" test_size_rounded_to_8;
      t "free and first-fit reuse" test_free_and_reuse;
      t "split on reuse" test_split_on_reuse;
      t "forward coalescing" test_coalesce_forward;
      t "backward coalescing" test_coalesce_backward;
      QCheck_alcotest.to_alcotest prop_no_adjacent_free_blocks;
      t "double free detected" test_double_free_detected;
      t "forged free magic detected" test_forged_free_magic_detected;
      t "corrupted header detected" test_corrupted_header_detected;
      t "OOM returns None" test_oom;
      t "free_partial leak arithmetic" test_free_partial_leak_arithmetic;
      t "free_partial frees whole block when tiny" test_free_partial_whole_when_tiny;
      t "live block count" test_live_blocks;
      t "peak tracking" test_peak_tracking;
      QCheck_alcotest.to_alcotest prop_allocator_invariants;
      QCheck_alcotest.to_alcotest prop_malloc_alignment;
      t "pinned: malloc at the break past a smashed header"
        test_pinned_malloc_at_break;
      t "pinned: free past a smashed header" test_pinned_free_later;
      t "pinned: free_partial past a smashed header"
        test_pinned_free_partial_later;
      t "pinned: quarantine eviction past a smashed header"
        test_pinned_quarantine_eviction;
      t "an armed chaos hook keeps the walk" test_chaos_hook_keeps_the_walk;
      t "restore drops the block index" test_restore_drops_index;
      QCheck_alcotest.to_alcotest prop_index_matches_walk;
    ] )
