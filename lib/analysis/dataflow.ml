open Bv_ir

type direction =
  | Forward
  | Backward

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  (* Facts by block number; [has_in.(b)] is false while block [b] has no
     fact, whatever [s_in.(b)] holds. *)
  type solution =
    { cfg : Cfg.t;
      s_in : L.t array;
      s_out : L.t array;
      has_in : bool array;
      has_out : bool array
    }

  let fact_in_at s b = if s.has_in.(b) then Some s.s_in.(b) else None
  let fact_out_at s b = if s.has_out.(b) then Some s.s_out.(b) else None

  let fact_in s l =
    match Cfg.find s.cfg l with Some b -> fact_in_at s b | None -> None

  let fact_out s l =
    match Cfg.find s.cfg l with Some b -> fact_out_at s b | None -> None

  let solve ~direction ~boundary ~transfer (g : Cfg.t) =
    let n = Cfg.size g in
    let s_in = Array.make n boundary and s_out = Array.make n boundary in
    let has_in = Array.make n false and has_out = Array.make n false in
    (* The transfer's input is the block-in for forward problems and the
       block-out for backward ones; its output is the other. "Upstream"
       feeds a block's input fact; "downstream" must be revisited when
       its output fact changes. *)
    let input, has_input, output, has_output, upstream, downstream =
      match direction with
      | Forward -> (s_in, has_in, s_out, has_out, g.Cfg.preds, g.Cfg.succs)
      | Backward -> (s_out, has_out, s_in, has_in, g.Cfg.succs, g.Cfg.preds)
    in
    let at_boundary b =
      match direction with
      | Forward -> b = g.Cfg.rpo.(0)
      | Backward -> Array.length g.Cfg.succs.(b) = 0
    in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let enqueue b =
      if Cfg.reachable g b && not queued.(b) then begin
        queued.(b) <- true;
        Queue.add b queue
      end
    in
    (match direction with
    | Forward -> Array.iter enqueue g.Cfg.rpo
    | Backward ->
      for k = Array.length g.Cfg.rpo - 1 downto 0 do
        enqueue g.Cfg.rpo.(k)
      done);
    while not (Queue.is_empty queue) do
      let b = Queue.pop queue in
      queued.(b) <- false;
      (* The boundary fact first, then the upstream facts computed so far
         in [upstream] order; none yet means a later upstream visit will
         re-enqueue the block. *)
      let have = ref (at_boundary b) in
      let fact = ref boundary in
      let sources = upstream.(b) in
      for k = 0 to Array.length sources - 1 do
        let s = sources.(k) in
        if has_output.(s) then
          if !have then fact := L.join !fact output.(s)
          else begin
            fact := output.(s);
            have := true
          end
      done;
      if !have then begin
        input.(b) <- !fact;
        has_input.(b) <- true;
        let out = transfer g.Cfg.blocks.(b) !fact in
        if not (has_output.(b) && L.equal output.(b) out) then begin
          output.(b) <- out;
          has_output.(b) <- true;
          Array.iter enqueue downstream.(b)
        end
      end
    done;
    { cfg = g; s_in; s_out; has_in; has_out }
end
