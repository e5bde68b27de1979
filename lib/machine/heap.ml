(** A first-fit free-list allocator living *inside* the simulated heap
    segment.

    Block format: an 8-byte header [size:4][status:4] directly before the
    payload. Keeping the metadata in simulated memory is deliberate: a heap
    overflow (§3.5.1) can corrupt the next block's header, and the
    allocator then detects the corruption on a later malloc/free exactly
    like a real glibc heap would.

    [free_partial] models the paper's §4.5 memory-leak scenario: after a
    smaller object is placed over a larger heap block, the program releases
    only the smaller object's footprint; the tail of the block remains
    allocated with no pointer to it — leaked.

    Finding blocks. The in-band headers are the only authority. The
    reference way to find a fit, or a freed block's previous neighbour,
    is to walk the implicit list from the heap base through every header,
    and that walk is what meets a smashed header and raises [Corrupted].
    Walking costs O(blocks) per malloc and free, which made the §4.4/4.5
    OOM grind quadratic, so the allocator also keeps an out-of-band
    mirror of the list, the {e index}: per block its payload, size,
    status and previous neighbour, plus a max-tree over free sizes that
    yields the lowest-address free block of size >= n in O(log blocks).
    That is exact first fit: every address the index returns is the one
    the walk would. Blocks live in slot [header offset / 16]; every block
    spans at least 16 bytes, so slots are distinct, ordered by address,
    and there are at most heap size / 16 of them.

    The index is trusted only while the headers provably equal it. Every
    write path marks the heap segment's second page bitmap, the touched
    plane of {!Pna_vmem.Segment.marks}, which only this module clears. Each
    malloc, free and free_partial first takes the marks on pages below
    the break and re-reads the indexed headers on those pages. If all
    match and the index ends at the break, a walk would visit exactly the
    indexed blocks and reject none, and the index answers for it.
    Otherwise the operation takes the walk, unchanged: on a header
    mismatch, on an index invalidated by [restore] (which covers replica
    thaws) or by an earlier operation that did not finish on it, on a
    free of an address that is not an indexed block, and whenever a Vmem
    chaos hook is armed, since its bit flips key on the exact access
    sequence. The next call that may use the index rebuilds it with one
    raw pass over the headers. Either way [Corrupted] fires at the same
    address with the same reason. *)

module Vmem = Pna_vmem.Vmem
module Segment = Pna_vmem.Segment
module San = Pna_sanitizer.Sanitizer

exception Corrupted of int * string

type stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable in_use : int;  (** payload bytes currently allocated *)
  mutable peak : int;
  mutable leaked : int;  (** bytes stranded by partial frees *)
}

type status = St_alloc | St_free | St_quar

(* The out-of-band block index. Slot [s] holds the block whose header
   starts at heap offset [16s] or [16s + 8]; [pay.(s) = 0] means none. *)
type index = {
  mutable live : bool;
      (* the arrays equal the in-band list, up to headers on pages whose
         touched mark is still set *)
  mutable top : int;  (* the break the indexed list ends at *)
  mutable last : int;  (* payload of the last block, 0 when empty *)
  mutable cap : int;  (* slots, a power of two *)
  mutable pay : int array;
  mutable size : int array;
  mutable st : status array;
  mutable prev : int array;  (* payload of the block before, 0 for the first *)
  mutable fit : int array;
      (* max-tree over free sizes: node [i] has children [2i] and [2i+1],
         slot [s] is leaf [cap + s] *)
}

type t = {
  mem : Vmem.t;
  base : int;
  limit : int;
  mutable brk : int;
  stats : stats;
  mutable chaos_alloc : (int -> bool) option;
      (** fault-injection hook: called with the (aligned) request size;
          returning [true] makes this malloc fail as if memory ran out *)
  mutable san : San.t option;
      (** sanitizer shadow map; when set, frees quarantine instead of
          returning blocks to the free list immediately *)
  quarantine : int Queue.t;  (** payload addresses, oldest first *)
  ix : index;
  mutable fast : bool;
      (** the operation in progress answers from [ix] and keeps it
          current; cleared the moment it cannot *)
}

let header_size = 8
let min_split = 8
let magic_alloc = 0xa110ca7e
let magic_free = 0xf7eeb10c

(* Status word of a freed-but-quarantined block: not reusable by
   [find_fit], so dangling reads and writes land on poisoned bytes
   instead of a recycled allocation; a second [free] still reads as a
   double free. *)
let magic_quar = 0x9afe110c

let quarantine_capacity = 16

let align8 n = (n + 7) land lnot 7

let create mem ~base ~size =
  {
    mem;
    base;
    limit = base + size;
    brk = base;
    stats = { allocs = 0; frees = 0; in_use = 0; peak = 0; leaked = 0 };
    chaos_alloc = None;
    san = None;
    quarantine = Queue.create ();
    ix =
      {
        live = false;
        top = base;
        last = 0;
        cap = 0;
        pay = [||];
        size = [||];
        st = [||];
        prev = [||];
        fit = [||];
      };
    fast = false;
  }

let stats t = t.stats
let set_chaos_alloc t hook = t.chaos_alloc <- hook

(* Shadow-map helpers: no-ops without an attached sanitizer. Header
   writes are simulator bookkeeping, not program behaviour, so they run
   exempt from checking; header *reads* need no exemption because meta
   bytes only flag on writes. *)
let shadow_mark t addr len st =
  match t.san with None -> () | Some s -> San.poison s ~addr ~len st

let exempt t f = match t.san with None -> f () | Some s -> San.exempt s f

let write_header t addr ~size ~status =
  exempt t (fun () ->
      Vmem.write_u32 ~tag:"heap-hdr" t.mem (addr - header_size) size;
      Vmem.write_u32 ~tag:"heap-hdr" t.mem (addr - 4) status);
  shadow_mark t (addr - header_size) header_size San.Heap_meta

let read_header_st t addr =
  let size = Vmem.read_u32 t.mem (addr - header_size) in
  let status = Vmem.read_u32 t.mem (addr - 4) in
  let st =
    if status = magic_alloc then St_alloc
    else if status = magic_free then St_free
    else if status = magic_quar then St_quar
    else raise (Corrupted (addr, Fmt.str "bad status word 0x%08x" status))
  in
  if size <= 0 || addr + size > t.limit then
    raise (Corrupted (addr, Fmt.str "implausible block size %d" size));
  (size, st)

let read_header t addr =
  let size, st = read_header_st t addr in
  (size, st = St_alloc)

(* ---- the block index ---- *)

let slot t payload = (payload - header_size - t.base) lsr 4

let magic_of = function
  | St_alloc -> magic_alloc
  | St_free -> magic_free
  | St_quar -> magic_quar

(* [Stdlib.max] compares polymorphically; these loops are hot. *)
let imax (a : int) b = if a >= b then a else b

let set_leaf ix s v =
  let fit = ix.fit in
  let i = ref (ix.cap + s) in
  fit.(!i) <- v;
  i := !i lsr 1;
  while !i >= 1 do
    let m = imax fit.(2 * !i) fit.(2 * !i + 1) in
    if fit.(!i) = m then i := 0
    else begin
      fit.(!i) <- m;
      i := !i lsr 1
    end
  done

(* Fresh arrays of [cap] slots holding the first [keep] slots of the old
   ones, the tree rebuilt over them. *)
let resize ix cap ~keep =
  let copy a z =
    let b = Array.make cap z in
    Array.blit a 0 b 0 keep;
    b
  in
  ix.pay <- copy ix.pay 0;
  ix.size <- copy ix.size 0;
  ix.st <- copy ix.st St_alloc;
  ix.prev <- copy ix.prev 0;
  ix.cap <- cap;
  ix.fit <- Array.make (2 * cap) 0;
  for s = 0 to keep - 1 do
    if ix.pay.(s) <> 0 && ix.st.(s) = St_free then ix.fit.(cap + s) <- ix.size.(s)
  done;
  for i = cap - 1 downto 1 do
    ix.fit.(i) <- imax ix.fit.(2 * i) ix.fit.(2 * i + 1)
  done

let ix_set t payload size st =
  let ix = t.ix and s = slot t payload in
  ix.pay.(s) <- payload;
  ix.size.(s) <- size;
  ix.st.(s) <- st;
  set_leaf ix s (if st = St_free then size else 0)

let ix_remove t payload =
  let s = slot t payload in
  t.ix.pay.(s) <- 0;
  set_leaf t.ix s 0

(* [payload]'s extent changed: point its successor back at it. *)
let ix_relink t payload =
  let ix = t.ix in
  let next = payload + ix.size.(slot t payload) + header_size in
  if next - header_size < ix.top then ix.prev.(slot t next) <- payload
  else ix.last <- payload

let ix_insert t payload size st ~prev =
  let s = slot t payload in
  if s >= t.ix.cap then begin
    let cap = ref t.ix.cap in
    while s >= !cap do
      cap := 2 * !cap
    done;
    resize t.ix !cap ~keep:t.ix.cap
  end;
  ix_set t payload size st;
  t.ix.prev.(s) <- prev;
  ix_relink t payload

let ix_first_fit t n =
  let ix = t.ix in
  if ix.fit.(1) < n then None
  else begin
    let i = ref 1 in
    while !i < ix.cap do
      i := if ix.fit.(2 * !i) >= n then 2 * !i else (2 * !i) + 1
    done;
    let s = !i - ix.cap in
    Some (ix.pay.(s), ix.size.(s))
  end

let indexed_block t payload =
  let off = payload - header_size - t.base in
  off >= 0 && off land 7 = 0
  && payload - header_size < t.ix.top
  && off lsr 4 < t.ix.cap
  && t.ix.pay.(off lsr 4) = payload

(* Raw header words, bypassing Vmem: no accounting, no hooks. *)
let raw_u32 (seg : Segment.t) addr =
  Int32.to_int (Bytes.get_int32_le seg.Segment.bytes (addr - seg.Segment.base))
  land 0xffffffff

let raw_status w =
  if w = magic_alloc then Some St_alloc
  else if w = magic_free then Some St_free
  else if w = magic_quar then Some St_quar
  else None

(* One raw pass over the headers the walk would visit. The index is
   live afterwards only when every one is well formed (known status, a
   positive multiple of 8 that stays inside the heap) and the list ends
   exactly at the break; anything else stays with the walk. *)
let rebuild t seg =
  let ix = t.ix in
  let cap = ref 64 in
  while !cap <= (t.brk - t.base) lsr 4 do
    cap := 2 * !cap
  done;
  if !cap = ix.cap then begin
    Array.fill ix.pay 0 ix.cap 0;
    Array.fill ix.fit 0 (2 * ix.cap) 0
  end
  else resize ix !cap ~keep:0;
  ix.top <- t.brk;
  ix.last <- 0;
  let rec go payload prev =
    let h = payload - header_size in
    if h >= t.brk then h = t.brk
    else
      let size = raw_u32 seg h in
      match raw_status (raw_u32 seg (h + 4)) with
      | Some st when size > 0 && size land 7 = 0 && payload + size <= t.limit ->
        ix_insert t payload size st ~prev;
        go (payload + size + header_size) payload
      | _ -> false
  in
  go (t.base + header_size) 0

(* Take the touched marks on pages below the break and re-read the
   indexed headers on those pages: a header overlapping the page starting
   at heap offset [lo] sits in slots [(lo - 7) / 16 .. (lo + 255) / 16]. *)
let headers_match t (seg : Segment.t) =
  let ix = t.ix in
  let base_off = t.base - seg.Segment.base in
  let last = (base_off + (t.brk - t.base) - 1) asr Segment.page_shift in
  let ok = ref true in
  Segment.take_touched seg (base_off lsr Segment.page_shift) last (fun p ->
      let lo = (p lsl Segment.page_shift) - base_off in
      let hi = (lo + Segment.page_size - 1) lsr 4 in
      for s = imax 0 (lo - header_size + 1) lsr 4
          to (if hi < ix.cap then hi else ix.cap - 1) do
        let pay = ix.pay.(s) in
        if pay <> 0
           && (raw_u32 seg (pay - header_size) <> ix.size.(s)
              || raw_u32 seg (pay - 4) <> magic_of ix.st.(s))
        then ok := false
      done);
  !ok

(* May the operation about to start answer from the index? Never under
   a chaos hook; otherwise when the index is live, ends at the break and
   matches every touched header — or can be rebuilt. *)
let index_ready t =
  let ix = t.ix in
  let was_live = ix.live in
  ix.live <- false;
  (not (Vmem.chaos_armed t.mem))
  &&
  match Vmem.find_segment t.mem t.base with
  | Some seg
    when t.limit <= Segment.limit seg && seg.Segment.perm.Pna_vmem.Perm.read ->
    (was_live && ix.top = t.brk && headers_match t seg) || rebuild t seg
  | _ -> false

(* Run one allocator operation. An operation that raises, or drops to
   the walk part-way, leaves the index dead until the next rebuild. *)
let op t f =
  t.fast <- index_ready t;
  match f () with
  | v ->
    t.ix.live <- t.fast;
    t.fast <- false;
    v
  | exception e ->
    t.fast <- false;
    raise e

(* ---- the reference walk ---- *)

(* Walk the implicit block list: payload addresses in layout order. *)
let iter_blocks_st t f =
  let rec go payload =
    if payload - header_size < t.brk then begin
      let size, st = read_header_st t payload in
      f payload size st;
      go (payload + size + header_size)
    end
  in
  go (t.base + header_size)

let iter_blocks t f =
  iter_blocks_st t (fun payload size st -> f payload size (st = St_alloc))

let walk_fit t n =
  let found = ref None in
  (try
     iter_blocks_st t (fun payload size st ->
         if st = St_free && size >= n && !found = None then begin
           found := Some (payload, size);
           raise Exit
         end)
   with Exit -> ());
  !found

let find_fit t n = if t.fast then ix_first_fit t n else walk_fit t n

let bump t n =
  let payload = t.brk + header_size in
  if payload + n > t.limit then None
  else begin
    t.brk <- payload + n;
    write_header t payload ~size:n ~status:magic_alloc;
    if t.fast then begin
      t.ix.top <- t.brk;
      ix_insert t payload n St_alloc ~prev:t.ix.last
    end;
    Some payload
  end

let account_alloc t n =
  t.stats.allocs <- t.stats.allocs + 1;
  t.stats.in_use <- t.stats.in_use + n;
  t.stats.peak <- max t.stats.peak t.stats.in_use

let malloc t n =
  if n <= 0 then invalid_arg "Heap.malloc: non-positive size";
  let n = align8 n in
  if (match t.chaos_alloc with Some f -> f n | None -> false) then None
  else
  op t @@ fun () ->
  match find_fit t n with
  | Some (payload, size) ->
    let used =
      if size - n >= min_split + header_size then begin
        (* split: trailing remainder becomes a fresh free block *)
        write_header t payload ~size:n ~status:magic_alloc;
        let rest = payload + n + header_size in
        write_header t rest ~size:(size - n - header_size) ~status:magic_free;
        if t.fast then begin
          ix_set t payload n St_alloc;
          ix_insert t rest (size - n - header_size) St_free ~prev:payload
        end;
        n
      end
      else begin
        (* too small to split: the whole block is handed out *)
        write_header t payload ~size ~status:magic_alloc;
        if t.fast then ix_set t payload size St_alloc;
        size
      end
    in
    account_alloc t used;
    (match t.san with
    | None -> ()
    | Some s -> San.unpoison s ~addr:payload ~len:used);
    Some payload
  | None -> (
    match bump t n with
    | Some payload ->
      account_alloc t n;
      (match t.san with
      | None -> ()
      | Some s -> San.unpoison s ~addr:payload ~len:n);
      Some payload
    | None -> None)

let block_size t payload = fst (read_header t payload)

(* The free block (if any) directly before [payload]. There are no
   footers to corrupt: the walk finds it through the implicit list, the
   index through its previous-neighbour link. *)
let walk_prev_free t payload =
  let found = ref None in
  (try
     iter_blocks_st t (fun p size st ->
         if p + size + header_size = payload then begin
           found := (if st = St_free then Some (p, size) else None);
           raise Exit
         end
         else if p >= payload then raise Exit)
   with Exit -> ());
  !found

let prev_free_neighbour t payload =
  if t.fast then
    let ix = t.ix in
    let p = ix.prev.(slot t payload) in
    if p <> 0 && ix.st.(slot t p) = St_free then Some (p, ix.size.(slot t p))
    else None
  else walk_prev_free t payload

(* Before an operation touches [payload] as a block: only an indexed
   block can be answered for; anything else drops to the walk. *)
let require_indexed t payload =
  if t.fast && not (indexed_block t payload) then t.fast <- false

(* Return a block to the free list and coalesce with free neighbours.
   Shadow: the payload and any absorbed headers become redzone. *)
let release t payload size =
  write_header t payload ~size ~status:magic_free;
  if t.fast then ix_set t payload size St_free;
  shadow_mark t payload size San.Heap_redzone;
  (* coalesce with the next block when it is free *)
  let payload, size =
    let next = payload + size + header_size in
    if next - header_size < t.brk then begin
      let nsize, nst = read_header_st t next in
      if nst = St_free then begin
        let size = size + header_size + nsize in
        write_header t payload ~size ~status:magic_free;
        if t.fast then begin
          ix_remove t next;
          ix_set t payload size St_free;
          ix_relink t payload
        end;
        shadow_mark t (next - header_size) header_size San.Heap_redzone;
        (payload, size)
      end
      else (payload, size)
    end
    else (payload, size)
  in
  (* ... and with the previous block *)
  match prev_free_neighbour t payload with
  | Some (prev, psize) ->
    let size = psize + header_size + size in
    write_header t prev ~size ~status:magic_free;
    if t.fast then begin
      ix_remove t payload;
      ix_set t prev size St_free;
      ix_relink t prev
    end;
    shadow_mark t (payload - header_size) header_size San.Heap_redzone
  | None -> ()

(* Oldest quarantined block goes back to the free list for real. *)
let evict_quarantined t =
  match Queue.take_opt t.quarantine with
  | None -> ()
  | Some old -> (
    match read_header_st t old with
    | osize, St_quar ->
      require_indexed t old;
      release t old osize
    | _ | (exception Corrupted _) -> ())

let free_block t payload =
  let size, st = read_header_st t payload in
  if st <> St_alloc then raise (Corrupted (payload, "double free"));
  require_indexed t payload;
  (* A forged status word can make a freed block look allocated again; a
     free that would release more bytes than are accounted as live is
     such a replay. Detect it, and clamp regardless so crafted sequences
     can never drive the gauge negative. *)
  if size > t.stats.in_use then
    raise (Corrupted (payload, "free of unaccounted block"));
  t.stats.frees <- t.stats.frees + 1;
  t.stats.in_use <- max 0 (t.stats.in_use - size);
  match t.san with
  | Some s ->
    (* Quarantine: the block is not reusable yet, so dangling accesses
       land on [Freed] bytes instead of a recycled allocation. *)
    write_header t payload ~size ~status:magic_quar;
    if t.fast then ix_set t payload size St_quar;
    San.poison s ~addr:payload ~len:size San.Freed;
    Queue.push payload t.quarantine;
    if Queue.length t.quarantine > quarantine_capacity then evict_quarantined t
  | None -> release t payload size

let free t payload = op t @@ fun () -> free_block t payload

(* Release only the first [n] payload bytes of the block; the tail stays
   allocated but unreachable. Returns the number of leaked bytes. *)
let free_partial t payload n =
  op t @@ fun () ->
  let size, st = read_header_st t payload in
  if st <> St_alloc then raise (Corrupted (payload, "partial free of free block"));
  let n = align8 n in
  if n + header_size + min_split > size then begin
    free_block t payload;
    0
  end
  else begin
    require_indexed t payload;
    let tail = payload + n + header_size in
    let tail_size = size - n - header_size in
    write_header t tail ~size:tail_size ~status:magic_alloc;
    write_header t payload ~size:n ~status:magic_alloc;
    if t.fast then begin
      ix_set t payload n St_alloc;
      ix_insert t tail tail_size St_alloc ~prev:payload
    end;
    t.stats.in_use <- max 0 (t.stats.in_use - header_size);
    free_block t payload;
    t.stats.leaked <- t.stats.leaked + tail_size + header_size;
    tail_size + header_size
  end

let set_sanitizer t s =
  (* Drain blocks quarantined under the previous regime so they do not
     linger unreusable forever. *)
  op t (fun () ->
      while not (Queue.is_empty t.quarantine) do
        evict_quarantined t
      done);
  t.san <- s;
  match s with
  | None -> ()
  | Some san ->
    (* Initialize the heap shadow: the whole segment is redzone, then
       block headers become meta and live payloads addressable. *)
    San.poison san ~addr:t.base ~len:(t.limit - t.base) San.Heap_redzone;
    iter_blocks_st t (fun payload size st ->
        San.poison san ~addr:(payload - header_size) ~len:header_size
          San.Heap_meta;
        if st = St_alloc then San.unpoison san ~addr:payload ~len:size)

let quarantined t = Queue.length t.quarantine

(* Allocator bookkeeping snapshot: the block headers themselves live in
   simulated memory and are captured by [Vmem.snapshot]; this records the
   out-of-band state (break pointer, statistics). *)
type snapshot = { sn_brk : int; sn_stats : stats; sn_quar : int list }

let snapshot t =
  {
    sn_brk = t.brk;
    sn_quar = List.of_seq (Queue.to_seq t.quarantine);
    sn_stats =
      {
        allocs = t.stats.allocs;
        frees = t.stats.frees;
        in_use = t.stats.in_use;
        peak = t.stats.peak;
        leaked = t.stats.leaked;
      };
  }

let restore t snap =
  t.ix.live <- false;
  t.brk <- snap.sn_brk;
  Queue.clear t.quarantine;
  List.iter (fun p -> Queue.push p t.quarantine) snap.sn_quar;
  t.stats.allocs <- snap.sn_stats.allocs;
  t.stats.frees <- snap.sn_stats.frees;
  t.stats.in_use <- snap.sn_stats.in_use;
  t.stats.peak <- snap.sn_stats.peak;
  t.stats.leaked <- snap.sn_stats.leaked

let live_blocks t =
  let n = ref 0 in
  iter_blocks t (fun _ _ allocated -> if allocated then incr n);
  !n

let pp ppf t =
  Fmt.pf ppf "heap: brk=0x%08x in_use=%d peak=%d allocs=%d frees=%d leaked=%d"
    t.brk t.stats.in_use t.stats.peak t.stats.allocs t.stats.frees
    t.stats.leaked
