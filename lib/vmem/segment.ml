(** A contiguous region of the simulated address space.

    Each segment owns a byte array for contents and a parallel byte array
    for taint: a byte is tainted when its value was derived from attacker
    input. Taint travels with every copy performed through {!Vmem}, which is
    what lets the attack drivers prove (rather than eyeball) that a saved
    return address or a vtable pointer has become attacker-controlled. *)

type kind = Text | Data | Bss | Heap | Stack | Mmap

let kind_name = function
  | Text -> "text"
  | Data -> "data"
  | Bss -> "bss"
  | Heap -> "heap"
  | Stack -> "stack"
  | Mmap -> "mmap"

let kind_count = 6

(* Dense index used by Vmem's per-kind accounting rows. *)
let kind_index = function
  | Text -> 0
  | Data -> 1
  | Bss -> 2
  | Heap -> 3
  | Stack -> 4
  | Mmap -> 5

(* Dirty-page granularity for copy-on-write snapshots. 256 bytes keeps
   the bitmap tiny (1 KiB for the 256 KiB heap) while making a lightly
   dirtied rewind blit a few hundred bytes instead of megabytes. *)
let page_shift = 8
let page_size = 1 lsl page_shift

type t = {
  kind : kind;
  base : int;
  size : int;
  bytes : Bytes.t;
  taint : Bytes.t;
  mutable perm : Perm.t;
  marks : Bytes.t;
      (* one byte per page carrying two bitmaps as bit planes:
         [dirty_bit], written since the last sync, and [touched_bit],
         written since the heap last checked its block index against the
         page — marked together, cleared apart *)
  mutable dirty_any : bool;  (* false implies no byte of [marks] has [dirty_bit] *)
}

let dirty_bit = 1
let touched_bit = 2

(* Both planes at once: the one store a write makes. *)
let both_marks = '\003'

let page_count size = (size + page_size - 1) lsr page_shift

let create ~kind ~base ~size ~perm =
  if size <= 0 then invalid_arg "Segment.create: size must be positive";
  if base < 0 then invalid_arg "Segment.create: negative base";
  {
    kind;
    base;
    size;
    bytes = Bytes.make size '\000';
    taint = Bytes.make size '\000';
    perm;
    marks = Bytes.make (page_count size) both_marks;
    dirty_any = true;
  }

let limit t = t.base + t.size
let contains t addr = addr >= t.base && addr < limit t

(* Offset of [addr] inside [t]; caller must have checked [contains]. *)
let off t addr = addr - t.base

let get_byte t addr = Char.code (Bytes.get t.bytes (off t addr))

(* Mark [len] bytes at segment offset [o] in both bitmaps. At most two
   pages for scalar widths, so the common case is one or two byte stores. *)
let[@inline] mark_dirty t o len =
  if len > 0 then begin
    let p0 = o lsr page_shift and p1 = (o + len - 1) lsr page_shift in
    if p0 = p1 then Bytes.unsafe_set t.marks p0 both_marks
    else Bytes.fill t.marks p0 (p1 - p0 + 1) both_marks;
    t.dirty_any <- true
  end

let mark_all_dirty t =
  Bytes.fill t.marks 0 (Bytes.length t.marks) both_marks;
  t.dirty_any <- true

(* [touched_bit] in every byte of a word: eight pages per load. *)
let touched_plane = 0x0202020202020202L

let clear_dirty t =
  if t.dirty_any then begin
    let m = t.marks and n = Bytes.length t.marks in
    let i = ref 0 in
    while !i + 8 <= n do
      Bytes.set_int64_ne m !i (Int64.logand (Bytes.get_int64_ne m !i) touched_plane);
      i := !i + 8
    done;
    for j = !i to n - 1 do
      Bytes.unsafe_set m j
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get m j) land touched_bit))
    done;
    t.dirty_any <- false
  end

let take_touched t p0 p1 f =
  let m = t.marks in
  let p = ref p0 in
  while !p <= p1 do
    let q = !p in
    if q land 7 = 0 && q + 7 <= p1
       && Int64.logand (Bytes.get_int64_ne m q) touched_plane = 0L
    then p := q + 8
    else begin
      let b = Char.code (Bytes.unsafe_get m q) in
      if b land touched_bit <> 0 then begin
        Bytes.unsafe_set m q (Char.unsafe_chr (b land dirty_bit));
        f q
      end;
      p := q + 1
    end
  done

(* Coalesced maximal runs of dirty pages, clamped to the segment size:
   [f off len] with [off]/[len] in bytes relative to the segment base. *)
let iter_dirty_runs t f =
  if t.dirty_any then begin
    let npages = Bytes.length t.marks in
    let dirty p = Char.code (Bytes.unsafe_get t.marks p) land dirty_bit <> 0 in
    let i = ref 0 in
    while !i < npages do
      if dirty !i then begin
        let j = ref (!i + 1) in
        while !j < npages && dirty !j do
          incr j
        done;
        let o = !i lsl page_shift in
        f o (min (!j lsl page_shift) t.size - o);
        i := !j
      end
      else incr i
    done
  end

let set_byte t addr v =
  let o = off t addr in
  Bytes.set t.bytes o (Char.chr (v land 0xff));
  mark_dirty t o 1

let get_taint t addr = Bytes.get t.taint (off t addr) <> '\000'

let set_taint t addr tainted =
  let o = off t addr in
  Bytes.set t.taint o (if tainted then '\001' else '\000');
  mark_dirty t o 1

let clear t =
  Bytes.fill t.bytes 0 t.size '\000';
  Bytes.fill t.taint 0 t.size '\000';
  mark_all_dirty t

let pp ppf t =
  Fmt.pf ppf "%-5s [0x%08x, 0x%08x) %a" (kind_name t.kind) t.base (limit t)
    Perm.pp t.perm
