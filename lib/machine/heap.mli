(** A first-fit free-list allocator whose metadata lives inside the
    simulated heap segment — so overflows corrupt it, and the allocator
    detects the corruption like a real glibc heap.

    The in-band headers ([size:4][status:4] before each payload) are the
    only authority. Walking them from the heap base is the reference way
    to find a fit or a freed block's previous neighbour, and the walk is
    what raises {!Corrupted} on a smashed header. To keep malloc and free
    from costing O(blocks), the allocator also keeps an out-of-band
    mirror, the block index: every block by address (with its previous
    neighbour) and a max-tree over the free sizes that yields the
    lowest-address free block of size >= n — exact first fit, so every
    returned address is the walk's. It holds at most heap size / 16
    entries, since every block spans at least 16 bytes.

    The index is trusted only while the headers provably equal it. Every
    write path marks the heap segment's second page bitmap, the touched
    plane of {!Pna_vmem.Segment.marks}; only this module clears it. Each
    {!malloc}, {!free} and {!free_partial} first re-reads the indexed
    headers on pages marked since its last call. It takes the walk,
    unchanged, on a mismatch, on an index invalidated by {!restore} (a
    replica thaw restores too) or by an operation that did not finish on
    it, on a free of an address that is not an indexed block, and
    whenever a Vmem chaos hook is armed. The index is then rebuilt lazily
    by one raw pass over the headers. [Corrupted] fires at the same
    address with the same reason either way; only Vmem read counts
    differ, because the index skips the walk's header reads. *)

exception Corrupted of int * string
(** (payload address, reason): bad status word, implausible size, double
    free. *)

type stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable in_use : int;  (** payload bytes currently allocated *)
  mutable peak : int;
  mutable leaked : int;  (** bytes stranded by partial frees *)
}

type t

val header_size : int  (* 8: [size:4][status:4] before each payload *)

val create : Pna_vmem.Vmem.t -> base:int -> size:int -> t
val stats : t -> stats

val set_chaos_alloc : t -> (int -> bool) option -> unit
(** Fault-injection hook: called with every (aligned) request size;
    returning [true] makes that malloc fail as if memory ran out. *)

val set_sanitizer : t -> Pna_sanitizer.Sanitizer.t option -> unit
(** Attach (or detach) a shadow map. On attach the heap shadow is
    initialized — whole segment redzone, block headers meta, live
    payloads addressable — and subsequent frees quarantine the payload
    ([Freed] bytes, block unreusable) in a bounded FIFO whose evictions
    return blocks to the free list for real. Any blocks quarantined
    under a previous sanitizer are drained first. *)

val quarantined : t -> int
(** Number of blocks currently held in the quarantine ring. *)

val quarantine_capacity : int

val malloc : t -> int -> int option
(** Payload address (8-aligned), or [None] when out of memory.
    @raise Invalid_argument on a non-positive size.
    @raise Corrupted when the walk meets a smashed header. *)

val free : t -> int -> unit
(** @raise Corrupted on double free or smashed header. *)

val free_partial : t -> int -> int -> int
(** [free_partial t p n] releases only the first [n] payload bytes of the
    block at [p]; the tail stays allocated with no pointer to it (§4.5).
    Returns the number of stranded bytes (tail + its new header), possibly
    0 when the block is too small to split. *)

type snapshot

val snapshot : t -> snapshot
(** Out-of-band allocator state (break pointer, statistics); the block
    headers live in simulated memory and are covered by {!Pna_vmem.Vmem}
    snapshots. *)

val restore : t -> snapshot -> unit
(** Does not touch the chaos hook — runtime configuration, not state.
    Invalidates the block index; the next call rebuilds it from the
    restored headers. *)

val block_size : t -> int -> int
val live_blocks : t -> int
val iter_blocks : t -> (int -> int -> bool -> unit) -> unit
(** [iter_blocks t f] calls [f payload size allocated] in address order. *)

val pp : Format.formatter -> t -> unit
