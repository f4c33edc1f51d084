open Bv_cache

let mk ?(size = 1024) ?(ways = 2) ?(line = 64) () =
  Sa_cache.create ~name:"t" ~size_bytes:size ~ways ~line_bytes:line

let hit = Alcotest.testable (Fmt.of_to_string (function `Hit -> "hit" | `Miss -> "miss")) ( = )

let test_construction () =
  Alcotest.check_raises "non-pow2 line"
    (Invalid_argument "t: line_bytes must be a power of two") (fun () ->
      ignore (mk ~line:48 ()));
  let c = mk () in
  Alcotest.(check int) "sets" 8 (Sa_cache.sets c);
  Alcotest.(check int) "line" 64 (Sa_cache.line_bytes c);
  (* a way packs its tag above a dirty bit, so a tag must fit in 62
     bits: 1-byte lines need at least one set bit *)
  Alcotest.check_raises "1-byte lines in one set"
    (Invalid_argument "t: 1-byte lines need more than one set") (fun () ->
      ignore (mk ~size:4 ~ways:4 ~line:1 ()));
  Alcotest.(check int) "1-byte lines in two sets" 2
    (Sa_cache.sets (mk ~size:8 ~ways:4 ~line:1 ()))

let test_hit_after_fill () =
  let c = mk () in
  Alcotest.check hit "cold miss" `Miss (Sa_cache.access c ~addr:0 ~write:false);
  Alcotest.check hit "warm hit" `Hit (Sa_cache.access c ~addr:8 ~write:false);
  Alcotest.check hit "same line other word" `Hit
    (Sa_cache.access c ~addr:63 ~write:false);
  Alcotest.check hit "next line misses" `Miss
    (Sa_cache.access c ~addr:64 ~write:false)

let test_lru () =
  let c = mk () in
  (* 2 ways, 8 sets: addresses with identical set bits conflict *)
  let conflict i = i * 8 * 64 in
  ignore (Sa_cache.access c ~addr:(conflict 0) ~write:false);
  ignore (Sa_cache.access c ~addr:(conflict 1) ~write:false);
  (* touch way 0 so way 1 is LRU *)
  ignore (Sa_cache.access c ~addr:(conflict 0) ~write:false);
  ignore (Sa_cache.access c ~addr:(conflict 2) ~write:false);
  (* conflict 1 must have been evicted, conflict 0 kept *)
  Alcotest.check hit "kept MRU" `Hit
    (Sa_cache.access c ~addr:(conflict 0) ~write:false);
  Alcotest.check hit "evicted LRU" `Miss
    (Sa_cache.access c ~addr:(conflict 1) ~write:false)

let test_writeback () =
  let c = mk () in
  let conflict i = i * 8 * 64 in
  ignore (Sa_cache.access c ~addr:(conflict 0) ~write:true);
  ignore (Sa_cache.access c ~addr:(conflict 1) ~write:false);
  ignore (Sa_cache.access c ~addr:(conflict 2) ~write:false);
  (* dirty line 0 evicted by the third conflicting fill *)
  let s = Sa_cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Sa_cache.evictions;
  Alcotest.(check int) "writebacks" 1 s.Sa_cache.writebacks

let test_probe_and_stats () =
  let c = mk () in
  Alcotest.(check bool) "probe does not allocate" false
    (Sa_cache.probe c ~addr:0);
  Alcotest.(check bool) "still cold" false (Sa_cache.probe c ~addr:0);
  ignore (Sa_cache.access c ~addr:0 ~write:false);
  Alcotest.(check bool) "probe hits" true (Sa_cache.probe c ~addr:0);
  Alcotest.(check (float 0.001)) "miss rate" 1.0 (Sa_cache.miss_rate c);
  Sa_cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Sa_cache.stats c).Sa_cache.accesses;
  Sa_cache.invalidate_all c;
  Alcotest.(check bool) "invalidated" false (Sa_cache.probe c ~addr:0)

(* The two-pass lookup [Sa_cache] used to run, kept as the reference: find
   the way holding the tag, and on a miss scan the set again for the
   victim. *)
module Two_pass = struct
  type t =
    { line_bits : int;
      set_bits : int;
      set_count : int;
      ways : int;
      tags : int array;
      lru : int array;
      dirty : bool array;
      mutable clock : int;
      mutable stats : Sa_cache.stats
    }

  let log2 n =
    let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
    go n 0

  let create ~size_bytes ~ways ~line_bytes =
    let set_count = size_bytes / (ways * line_bytes) in
    { line_bits = log2 line_bytes;
      set_bits = log2 set_count;
      set_count;
      ways;
      tags = Array.make (set_count * ways) (-1);
      lru = Array.make (set_count * ways) 0;
      dirty = Array.make (set_count * ways) false;
      clock = 0;
      stats =
        { Sa_cache.accesses = 0; misses = 0; evictions = 0; writebacks = 0 }
    }

  let find_way_idx t set tag =
    let base = set * t.ways in
    let rec go w =
      if w >= t.ways then -1
      else if t.tags.(base + w) = tag then base + w
      else go (w + 1)
    in
    go 0

  let victim_way t set =
    let base = set * t.ways in
    let best = ref base in
    for w = 1 to t.ways - 1 do
      let i = base + w in
      if t.tags.(i) = -1 && t.tags.(!best) <> -1 then best := i
      else if t.tags.(i) <> -1 && t.tags.(!best) <> -1
              && t.lru.(i) < t.lru.(!best)
      then best := i
    done;
    !best

  (* The byte address of the line held in way [i]. *)
  let line_addr t i =
    let set = i / t.ways in
    ((t.tags.(i) lsl t.set_bits) lor set) lsl t.line_bits

  (* The access's outcome and the address of the line it evicted, or -1. *)
  let access t ~addr ~write =
    let s = t.stats in
    t.clock <- t.clock + 1;
    let line = addr lsr t.line_bits in
    let set = line land (t.set_count - 1) in
    let tag = line lsr t.set_bits in
    let i = find_way_idx t set tag in
    if i >= 0 then begin
      t.stats <- { s with accesses = s.accesses + 1 };
      t.lru.(i) <- t.clock;
      if write then t.dirty.(i) <- true;
      (`Hit, -1)
    end
    else begin
      let i = victim_way t set in
      let evicted = if t.tags.(i) <> -1 then line_addr t i else -1 in
      t.stats <-
        { Sa_cache.accesses = s.accesses + 1;
          misses = s.misses + 1;
          evictions = (s.evictions + if evicted >= 0 then 1 else 0);
          writebacks =
            (s.writebacks + if evicted >= 0 && t.dirty.(i) then 1 else 0)
        };
      t.tags.(i) <- tag;
      t.lru.(i) <- t.clock;
      t.dirty.(i) <- write;
      (`Miss, evicted)
    end

  let invalidate_all t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.dirty 0 (Array.length t.dirty) false
end

type cache_op = Access of int * bool | Invalidate

let prop_single_pass_lookup =
  let gen =
    QCheck2.Gen.(
      let* ways = oneofl [ 1; 2; 3; 4; 8 ] in
      let* sets = oneofl [ 1; 2; 8 ] in
      let* line = oneofl [ 16; 64 ] in
      (* a few lines' worth of addresses per way, so sets conflict *)
      let lines = sets * ways * 3 in
      let access =
        map2 (fun a w -> Access (a, w)) (int_bound ((lines * line) - 1)) bool
      in
      let op = frequency [ (40, access); (1, pure Invalidate) ] in
      let+ ops = list_size (int_range 1 400) op in
      (ways, sets, line, ops))
  in
  QCheck2.Test.make ~count:300
    ~name:"single-pass lookup = two-pass reference (outcome, stats, victim)"
    gen
    (fun (ways, sets, line, ops) ->
      let size_bytes = ways * sets * line in
      let c = Sa_cache.create ~name:"t" ~size_bytes ~ways ~line_bytes:line in
      let r = Two_pass.create ~size_bytes ~ways ~line_bytes:line in
      List.for_all
        (function
          | Invalidate ->
            Sa_cache.invalidate_all c;
            Two_pass.invalidate_all r;
            true
          | Access (addr, write) ->
            let got = Sa_cache.access c ~addr ~write in
            let want, evicted = Two_pass.access r ~addr ~write in
            got = want
            && Sa_cache.stats c = r.Two_pass.stats
            (* the same line left, and the set now holds the same lines *)
            && (evicted < 0 || not (Sa_cache.probe c ~addr:evicted))
            && List.for_all
                 (fun i ->
                   r.Two_pass.tags.(i) = -1
                   || Sa_cache.probe c ~addr:(Two_pass.line_addr r i))
                 (let set = (addr lsr r.Two_pass.line_bits) land (sets - 1) in
                  List.init ways (fun w -> (set * ways) + w)))
        ops)

(* [Sa_cache]'s recency-ordered sets against [Cache_ref], the stamp-LRU
   cache they replaced: random geometries of 1 to 32 ways, and random
   streams of reads, writes, probes and invalidations over about one and
   a half times the cache's lines. After every operation the answer and
   the stats must be the reference's.

   Each way packs its tag into one word, so the addresses reach the
   whole int range: besides the low ones, the same lines at or above
   2^61, below 0, and with bit 62 flipped, so that pairs of addresses
   differ only in their top bit. 1-byte lines over two or more sets
   give the widest tag a cache accepts, 62 bits. *)
type ref_op = Read_write of int * bool | Probe of int | Invalidate_all

let prop_recency_order =
  let gen =
    QCheck2.Gen.(
      let* ways = int_range 1 32 in
      let* line = oneofl [ 1; 8; 64 ] in
      let* sets = oneofl (if line = 1 then [ 2; 4; 16 ] else [ 1; 2; 4; 16 ]) in
      let lines = sets * ((3 * ways / 2) + 1) in
      let low = int_bound ((lines * line) - 1) in
      let addr =
        frequency
          [ (4, low);
            (1, map (fun a -> (1 lsl 61) + a) low);
            (1, map (fun a -> -1 - a) low);
            (1, map (fun a -> a lxor (1 lsl 62)) low)
          ]
      in
      let op =
        frequency
          [ (30, map2 (fun a w -> Read_write (a, w)) addr bool);
            (10, map (fun a -> Probe a) addr);
            (1, pure Invalidate_all)
          ]
      in
      let+ ops = list_size (int_range 1 600) op in
      (ways, sets, line, ops))
  in
  QCheck2.Test.make ~count:300
    ~name:"recency-ordered sets = stamp-LRU reference (access, probe, stats)"
    gen
    (fun (ways, sets, line, ops) ->
      let size_bytes = ways * sets * line in
      let c = Sa_cache.create ~name:"t" ~size_bytes ~ways ~line_bytes:line in
      let r = Cache_ref.create ~name:"t" ~size_bytes ~ways ~line_bytes:line in
      List.for_all
        (fun op ->
          (match op with
          | Read_write (addr, write) ->
            Sa_cache.access c ~addr ~write = Cache_ref.access r ~addr ~write
          | Probe addr -> Sa_cache.probe c ~addr = Cache_ref.probe r ~addr
          | Invalidate_all ->
            Sa_cache.invalidate_all c;
            Cache_ref.invalidate_all r;
            true)
          && Sa_cache.stats c = Cache_ref.stats r)
        ops)

let test_hierarchy_latencies () =
  let h = Hierarchy.create () in
  let lat, level = Hierarchy.data_access h ~addr:0 ~write:false in
  Alcotest.(check int) "full miss" (4 + 12 + 25 + 140) lat;
  Alcotest.(check bool) "level mem" true (level = Hierarchy.Mem);
  let lat, level = Hierarchy.data_access h ~addr:8 ~write:false in
  Alcotest.(check int) "l1 hit" 4 lat;
  Alcotest.(check bool) "level l1" true (level = Hierarchy.L1);
  (* instruction fetch hits cost nothing; use an address the earlier data
     accesses did not pull into the (inclusive) lower levels *)
  let lat, _ = Hierarchy.inst_access h ~addr:1_000_000 in
  Alcotest.(check int) "i$ cold miss" (12 + 25 + 140) lat;
  let lat, _ = Hierarchy.inst_access h ~addr:1_000_032 in
  Alcotest.(check int) "i$ hit free" 0 lat

let test_hierarchy_l2_hit () =
  let cfg =
    { Hierarchy.default_config with
      Hierarchy.l1d_bytes = 4096; l1d_ways = 1 }
  in
  let h = Hierarchy.create ~config:cfg () in
  (* fill a line, evict it from tiny L1 by a conflicting line, re-access:
     should hit in L2 *)
  ignore (Hierarchy.data_access h ~addr:0 ~write:false);
  ignore (Hierarchy.data_access h ~addr:4096 ~write:false);
  let lat, level = Hierarchy.data_access h ~addr:0 ~write:false in
  Alcotest.(check int) "l2 hit" (4 + 12) lat;
  Alcotest.(check bool) "level l2" true (level = Hierarchy.L2)

let prop_inclusive_second_access_hits =
  QCheck2.Test.make ~name:"re-access within a line always hits L1" ~count:100
    QCheck2.Gen.(int_bound 100_000)
    (fun addr ->
      let h = Hierarchy.create () in
      ignore (Hierarchy.data_access h ~addr ~write:false);
      fst (Hierarchy.data_access h ~addr ~write:false) = 4)

let () =
  Alcotest.run "bv_cache"
    [ ( "sa_cache",
        [ Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "hit after fill" `Quick test_hit_after_fill;
          Alcotest.test_case "lru" `Quick test_lru;
          Alcotest.test_case "writeback" `Quick test_writeback;
          Alcotest.test_case "probe/stats" `Quick test_probe_and_stats
        ] );
      ( "hierarchy",
        [ Alcotest.test_case "latencies" `Quick test_hierarchy_latencies;
          Alcotest.test_case "l2 hit" `Quick test_hierarchy_l2_hit
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_inclusive_second_access_hits;
          QCheck_alcotest.to_alcotest prop_single_pass_lookup;
          QCheck_alcotest.to_alcotest prop_recency_order
        ] )
    ]
