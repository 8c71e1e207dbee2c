(** Cycle cost model and ledger.

    Every component of the simulated machine charges cycles here, labelled by
    category, so the benchmark harness can reproduce the paper's overhead
    figures from the same mechanism as real hardware would: extra DRAM
    latency on encrypted lines, TLB flushes on mapping changes, world-switch
    costs on vmexit, and per-block costs for the three I/O encoders.

    The constants are calibrated against the paper's own micro-benchmarks
    (§7.2): a type-1 gate is 306 cycles, type-2 is 16, type-3 is 339 of which
    the TLB entry flush is 128 and the cacheline write under 2; shadow+check
    round trip is 661; AES-NI memory-copy slowdown 11.49%, SME engine 8.69%,
    software AES >20x. *)

type table = {
  dram_access : int;          (** plain DRAM access, per cache line *)
  enc_extra : int;            (** added latency when the line is encrypted *)
  cache_hit : int;            (** L1/L2 averaged hit *)
  cacheline_write : int;      (** store into cache, paper: <2 cycles *)
  tlb_flush_full : int;       (** full TLB flush (CR3 switch on AMD) *)
  tlb_flush_entry : int;      (** INVLPG, paper: 128 cycles *)
  tlb_miss_walk : int;        (** page-table walk on TLB miss *)
  wp_toggle : int;            (** CR0.WP write *)
  irq_mask_toggle : int;      (** cli/sti pair *)
  stack_switch : int;
  sanity_check : int;         (** per-gate policy sanity checks *)
  vmexit : int;               (** hardware world switch, guest->host *)
  vmrun : int;                (** host->guest *)
  vmcb_field_copy : int;      (** copy/compare one VMCB field *)
  hypercall_base : int;
  pit_lookup : int;           (** one PIT radix walk *)
  git_lookup : int;
  aesni_block : int;          (** copy+encode via AES-NI, total per block *)
  sev_engine_block : int;     (** copy+encode via the SEV/SME engine, total per block *)
  sw_aes_block : int;         (** copy+encode via software AES, total per block *)
  memcpy_block : int;         (** plain copy, per block (the baseline) *)
  io_sector : int;            (** backend device access per 512-byte sector *)
  event_channel : int;        (** event-channel notification *)
  firmware_cmd : int;         (** fixed SEV firmware command overhead *)
  firmware_page : int;        (** per-page firmware processing (LAUNCH/SEND/RECEIVE _UPDATE) *)
  gate1 : int;                (** type-1 gate (clear WP): paper 306 cycles *)
  gate2 : int;                (** type-2 gate (checking loop): paper 16 cycles *)
  gate3 : int;                (** type-3 gate (add mapping): paper 339 cycles, of
                                  which the TLB entry flush is 128 and the PTE
                                  cacheline write under 2 *)
  shadow_roundtrip : int;     (** shadow+verify across one vmexit: paper 661 cycles *)
}

val default : table

type ledger
(** Mutable accumulator of cycles, broken down by category label. *)

val ledger : unit -> ledger

type id
(** Dense interned handle for a category or cost-scope label. Charge
    sites resolve their label once ([let c_tlb_hit = Cost.intern
    "tlb-hit"] at module init), and a domain interns its scope label once
    at creation, so the per-access {!charge_id} is an array add plus one
    innermost-scope add — no string hashing on the hot path. *)

val intern : string -> id
(** Resolve a label to its id, registering it on first use. Idempotent;
    safe from any domain (the registry is mutex-guarded). *)

val id_label : id -> string
(** The label a given id was registered under. *)

val charge_id : ledger -> id -> int -> unit
(** [charge_id l id cycles] adds to the total, the category row (visible
    even for a 0-cycle charge), and (when a scope is active) the innermost
    scope, without string hashing or allocation. Negative amounts would
    corrupt the attribution invariants and raise [Invalid_argument]. The
    only way to charge cycles: sites {!intern} their label once. *)

val root_scope : string
(** ["(root)"] — the implicit scope owning every cycle charged outside any
    entered scope. Reserved: {!scope_enter} on its id raises
    [Invalid_argument]. *)

val scope_enter : ledger -> id -> unit
(** [scope_enter l (intern "dom3")] makes ["dom3"] the innermost
    attribution scope, and the calling domain's trace scope tag, until
    the matching {!scope_exit}, which the caller owes on every path out.
    Scopes nest; a charge is booked to the innermost only, so
    [sum (scopes l) = total l] always holds. Allocation-free. *)

val scope_exit : ledger -> unit
(** Pop the innermost scope; the trace scope tag becomes the new
    innermost label, or [""] at depth 0. A no-op at depth 0. *)

val total : ledger -> int

val category : ledger -> string -> int
(** 0 when the category was never charged. *)

val categories : ledger -> (string * int) list
(** Sorted by descending cycles; ties broken on the category name so the
    listing is deterministic. *)

val scopes : ledger -> (string * int) list
(** Per-scope cycle attribution: every scope ever entered (0-cycle ones
    included) plus the {!root_scope} remainder when it is non-zero or no
    scope was entered; entries sum exactly to {!total}. Sorted like
    {!categories}. *)

val pp : Format.formatter -> ledger -> unit
