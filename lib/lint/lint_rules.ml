type scope = {
  file : string;
  in_lib : bool;
  in_bench : bool;
  is_prng : bool;
  in_parallel : bool;
  is_clock : bool;
  is_resource : bool;
  is_socket : bool;
  in_sched : bool;
}

type meta = { id : string; title : string; remedy : string }

let all_meta =
  [
    {
      id = "R1";
      title = "no polymorphic =, <> or compare with a float operand";
      remedy = "use Tol.equal / Tol.is_zero, or Tol.exactly when exactness is intended";
    };
    {
      id = "R2";
      title = "no naive float accumulation in lib/ or bench/";
      remedy = "use Kahan.create/add/total or Kahan.sum*";
    };
    {
      id = "R3";
      title = "no stdlib Random outside lib/numerics/prng.ml";
      remedy = "thread an explicit Prng.t seeded from the experiment config";
    };
    {
      id = "R4";
      title = "no direct printing from lib/";
      remedy = "emit through Obs sinks or return values to the caller";
    };
    {
      id = "R5";
      title = "every lib/**/*.ml has a matching .mli";
      remedy = "write the interface; unconstrained modules leak representation";
    };
    {
      id = "R6";
      title = "no Obj.magic / Obj.repr";
      remedy = "restructure the types instead of defeating them";
    };
    {
      id = "R7";
      title = "no raw Domain.spawn outside lib/parallel/";
      remedy =
        "run the work through Domain_pool, which keeps the chunk-grid \
         determinism contract auditable";
    };
    {
      id = "R8";
      title =
        "no wall-clock reads (Unix.gettimeofday, Unix.time, Sys.time) \
         outside lib/obs/obs_clock.ml";
      remedy =
        "route timing through Obs_clock, whose monotonic high-water clamp \
         keeps span durations non-negative";
    };
    {
      id = "R9";
      title =
        "no direct Gc.stat / Gc.quick_stat / Gc.counters outside \
         lib/obs/obs_resource.ml";
      remedy =
        "sample through Obs_resource, which records the readings as \
         registry metrics at the caller's chosen points";
    };
    {
      id = "R10";
      title =
        "planning core (lib/sched, lib/numerics, lib/lifefn, lib/workload) \
         is effect-free apart from domain (deep)";
      remedy =
        "route instrumentation through the ?obs seam; hoist clock, random, \
         io and shared mutation out of the planning core";
    };
    {
      id = "R11";
      title =
        "closures passed to Domain_pool.run/map/map_reduce/parallel_for \
         capture no toplevel mutable state (deep)";
      remedy =
        "pass state through chunk-local arguments and merge the results on \
         the caller, as Obs_fork.scatter/gather does";
    };
    {
      id = "R12";
      title =
        "each lib module's inferred effect signature matches the committed \
         .cseffects manifest (deep)";
      remedy =
        "review the drift, then re-lock with cslint --deep --write-effects";
    };
    {
      id = "R13";
      title =
        "no socket I/O (Unix.socket, accept, bind, connect, ...) outside \
         the lib/obs transport: obs_http.ml, obs_stream.ml, obs_remote.ml, \
         obs_collect.ml";
      remedy =
        "go through Obs_http / Obs_remote / Obs_collect, whose bounded \
         loops and validated exposition keep the network surface auditable";
    };
    {
      id = "R14";
      title =
        "no toplevel mutable memo/cache state (Hashtbl, Atomic, ref) in \
         lib/sched; memo state lives in an explicit handle that the \
         caller creates and passes";
      remedy =
        "hold the state in an explicit handle that the caller creates and \
         passes through call-sites; the planning core stays pure (R10) \
         and bit-reproducible";
    };
    {
      id = "M1";
      title = "no unused [@lint.allow] suppression";
      remedy =
        "delete the stale attribute, or pass --allow-unused-allows to \
         downgrade the report to a warning";
    };
  ]

(* Rules only the interprocedural pass can fire; in a shallow run an
   unmatched allow naming one of these is not stale, just out of scope. *)
let deep_rule_ids = [ "R10"; "R11"; "R12" ]

open Parsetree

(* A raw finding carries the character span of the offending node so the
   suppression pass can match it against [@lint.allow] attribute spans. *)
type raw = {
  r_rule : string;
  r_loc : Location.t;
  r_msg : string;
  r_start : int;
  r_end : int;
}

type allow_span = {
  a_rule : string;
  a_loc : Location.t;
  a_start : int;
  a_end : int;
}

let float_arith_ops = [ "+."; "-."; "*."; "/."; "~-."; "**" ]

let is_float_operand e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, _)
    when List.mem op float_arith_ops ->
      true
  | Pexp_constraint
      ( _,
        {
          ptyp_desc = Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []);
          _;
        } ) ->
      true
  | _ -> false

let rec longident_head = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, _) -> longident_head l
  | Longident.Lapply (l, _) -> longident_head l

let deref_of_var name e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) ] )
    ->
      String.equal v name
  | _ -> false

let lib_printers =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_char";
    "print_int";
    "print_float";
  ]

(* Rules of the [@lint.allow "R2"] payload: one string constant naming one
   or more rule ids, separated by spaces or commas. *)
let allow_payload_rules = function
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                _ );
          _;
        };
      ] ->
      let split c l = List.concat_map (String.split_on_char c) l in
      let rules =
        [ s ] |> split ' ' |> split ','
        |> List.filter_map (fun r ->
               let r = String.trim r in
               if String.length r = 0 then None else Some r)
      in
      if rules = [] then None else Some rules
  | _ -> None

let make_checker (scope : scope) =
  let findings = ref [] in
  let allows = ref [] in
  let report rule loc msg =
    findings :=
      {
        r_rule = rule;
        r_loc = loc;
        r_msg = msg;
        r_start = loc.Location.loc_start.Lexing.pos_cnum;
        r_end = loc.Location.loc_end.Lexing.pos_cnum;
      }
      :: !findings
  in
  let note_attrs attrs (loc : Location.t) =
    List.iter
      (fun (a : attribute) ->
        if String.equal a.attr_name.txt "lint.allow" then
          match allow_payload_rules a.attr_payload with
          | Some rules ->
              List.iter
                (fun r ->
                  allows :=
                    {
                      a_rule = r;
                      a_loc = a.attr_loc;
                      a_start = loc.loc_start.pos_cnum;
                      a_end = loc.loc_end.pos_cnum;
                    }
                    :: !allows)
                rules
          | None ->
              report "E1" a.attr_loc
                "malformed [@lint.allow ...] payload; expected a string of \
                 rule ids like \"R2\" or \"R1,R2\"")
      attrs
  in
  let check_ident lid loc =
    (match lid with
    | Longident.Ldot (Longident.Lident "Obj", ("magic" | "repr")) ->
        report "R6" loc
          "Obj.magic/Obj.repr defeat the type system; restructure the types"
    | _ -> ());
    (match lid with
    | Longident.Ldot (Longident.Lident "Domain", "spawn")
      when not scope.in_parallel ->
        report "R7" loc
          "raw Domain.spawn outside lib/parallel/; run the work through \
           Domain_pool so the determinism contract stays auditable"
    | _ -> ());
    (match lid with
    | Longident.Ldot
        (Longident.Lident "Unix", (("gettimeofday" | "time") as fn))
      when not scope.is_clock ->
        report "R8" loc
          (Printf.sprintf
             "Unix.%s reads the wall clock directly; route timing through \
              Obs_clock"
             fn)
    | Longident.Ldot (Longident.Lident "Sys", "time") when not scope.is_clock
      ->
        report "R8" loc
          "Sys.time reads the process clock directly; route timing through \
           Obs_clock"
    | _ -> ());
    (match lid with
    | Longident.Ldot
        ( Longident.Lident "Unix",
          (( "socket" | "socketpair" | "accept" | "bind" | "listen"
           | "connect" | "setsockopt" | "getsockname" | "getpeername"
           | "send" | "recv" | "sendto" | "recvfrom" ) as fn) )
      when not scope.is_socket ->
        report "R13" loc
          (Printf.sprintf
             "Unix.%s opens a network surface outside the lib/obs \
              transport modules; go through Obs_http / Obs_remote / \
              Obs_collect so the socket code stays in one auditable place"
             fn)
    | _ -> ());
    (match lid with
    | Longident.Ldot
        (Longident.Lident "Gc", (("stat" | "quick_stat" | "counters") as fn))
      when not scope.is_resource ->
        report "R9" loc
          (Printf.sprintf
             "Gc.%s samples the runtime directly; go through Obs_resource, \
              which budgets the cost and keeps sampling points deterministic"
             fn)
    | _ -> ());
    (if (not scope.is_prng) && String.equal (longident_head lid) "Random" then
       report "R3" loc
         "stdlib Random breaks reproducibility; thread an explicit Prng.t");
    if scope.in_lib then
      match lid with
      | Longident.Lident p when List.mem p lib_printers ->
          report "R4" loc
            (Printf.sprintf
               "%s prints directly from lib/; emit through Obs sinks or \
                return values"
               p)
      | Longident.Ldot (Longident.Lident ("Printf" | "Format"), "printf") ->
          report "R4" loc
            "printf prints directly from lib/; emit through Obs sinks or \
             return values"
      | _ -> ()
  in
  let check_expr (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident txt loc
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = fn; _ }; _ },
          ((_ :: _ :: _ | [ _ ]) as args) ) -> (
        let poly_cmp =
          match fn with
          | Longident.Lident (("=" | "<>" | "compare") as s) -> Some s
          | Longident.Ldot
              (Longident.Lident "Stdlib", (("=" | "<>" | "compare") as s)) ->
              Some s
          | _ -> None
        in
        (match (poly_cmp, args) with
        | Some op, [ (_, a); (_, b) ]
          when is_float_operand a || is_float_operand b ->
            report "R1" e.pexp_loc
              (Printf.sprintf
                 "polymorphic %s with a float operand; use Tol.equal, \
                  Tol.is_zero or Tol.exactly"
                 op)
        | _ -> ());
        match (fn, args) with
        | ( Longident.Ldot (Longident.Lident ("List" | "Array" | "Seq"), "fold_left"),
            (_, { pexp_desc = Pexp_ident { txt = Longident.Lident "+."; _ }; _ })
            :: _ )
          when scope.in_lib || scope.in_bench ->
            report "R2" e.pexp_loc
              "naive fold_left (+.) accumulation; use Kahan.sum / \
               Kahan.sum_list / Kahan.sum_by"
        | ( Longident.Lident ":=",
            [
              (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ });
              ( _,
                {
                  pexp_desc =
                    Pexp_apply
                      ( {
                          pexp_desc =
                            Pexp_ident { txt = Longident.Lident "+."; _ };
                          _;
                        },
                        [ (_, lhs); (_, rhs) ] );
                  _;
                } );
            ] )
          when (scope.in_lib || scope.in_bench)
               && (deref_of_var v lhs || deref_of_var v rhs) ->
            report "R2" e.pexp_loc
              (Printf.sprintf
                 "running float accumulation into %s via := !%s +. ...; use \
                  Kahan.create/add/total"
                 v v)
        | _ -> ())
    | _ -> ()
  in
  (* R14: a structure-level binding in lib/sched whose right-hand side
     allocates a Hashtbl, an Atomic or a ref outside any function body is
     module-lifetime mutable state — memoization smuggled into the pure
     planning core. The scan descends only through constructors that
     evaluate at module init (let/sequence/tuple/record/construct/if/
     apply arguments...); anything else — in particular function and lazy
     bodies, whose allocations are per-call — is skipped, so the local
     scratch tables the planners build inside calls stay legal. *)
  let rec r14_scan_static e =
    let alloc =
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) -> (
          match txt with
          | Longident.Ldot
              (Longident.Lident "Hashtbl", (("create" | "of_seq") as fn)) ->
              Some ("Hashtbl." ^ fn)
          | Longident.Ldot (Longident.Lident "Atomic", "make") ->
              Some "Atomic.make"
          | Longident.Lident "ref" -> Some "ref"
          | _ -> None)
      | _ -> None
    in
    (match alloc with
    | Some what ->
        report "R14" e.pexp_loc
          (Printf.sprintf
             "toplevel %s allocates module-lifetime mutable state in \
              lib/sched; memo state belongs in an explicit handle that \
              the caller creates and passes"
             what)
    | None -> ());
    match e.pexp_desc with
    | Pexp_apply (_, args) -> List.iter (fun (_, a) -> r14_scan_static a) args
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> r14_scan_static vb.pvb_expr) vbs;
        r14_scan_static body
    | Pexp_sequence (a, b) ->
        r14_scan_static a;
        r14_scan_static b
    | Pexp_tuple es | Pexp_array es -> List.iter r14_scan_static es
    | Pexp_record (fields, base) ->
        List.iter (fun (_, v) -> r14_scan_static v) fields;
        Option.iter r14_scan_static base
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
        Option.iter r14_scan_static arg
    | Pexp_constraint (inner, _) | Pexp_open (_, inner) ->
        r14_scan_static inner
    | Pexp_ifthenelse (cond, then_, else_) ->
        r14_scan_static cond;
        r14_scan_static then_;
        Option.iter r14_scan_static else_
    | _ -> ()
  in
  let r14_check_structure str =
    if scope.in_sched then
      List.iter
        (fun si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter (fun vb -> r14_scan_static vb.pvb_expr) vbs
          | _ -> ())
        str
  in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      structure =
        (fun it str ->
          (* Runs for the compilation unit and for each nested [struct]
             — module-lifetime state is module-lifetime wherever the
             module sits. *)
          r14_check_structure str;
          default.structure it str);
      expr =
        (fun it e ->
          note_attrs e.pexp_attributes e.pexp_loc;
          check_expr e;
          default.expr it e);
      value_binding =
        (fun it vb ->
          note_attrs vb.pvb_attributes vb.pvb_loc;
          default.value_binding it vb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a ->
              (* Floating [@@@lint.allow "..."] suppresses for the whole
                 compilation unit. *)
              note_attrs [ a ]
                {
                  si.pstr_loc with
                  loc_start = { si.pstr_loc.loc_start with pos_cnum = 0 };
                  loc_end = { si.pstr_loc.loc_end with pos_cnum = max_int };
                }
          | _ -> ());
          default.structure_item it si);
      module_binding =
        (fun it mb ->
          note_attrs mb.pmb_attributes mb.pmb_loc;
          default.module_binding it mb);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with
          | Pmod_ident { txt; loc } ->
              if (not scope.is_prng) && String.equal (longident_head txt) "Random"
              then
                report "R3" loc
                  "stdlib Random breaks reproducibility; thread an explicit \
                   Prng.t"
          | _ -> ());
          default.module_expr it me);
      (* Interface-side checks: the same R3 fence applies to aliases
         ([module S = Random]) and opens written in a .mli, and attributes
         on declarations still carry [@lint.allow] spans. *)
      module_type =
        (fun it mt ->
          (match mt.pmty_desc with
          | Pmty_alias { txt; loc }
            when (not scope.is_prng)
                 && String.equal (longident_head txt) "Random" ->
              report "R3" loc
                "stdlib Random breaks reproducibility; thread an explicit \
                 Prng.t"
          | _ -> ());
          default.module_type it mt);
      open_description =
        (fun it od ->
          (if
             (not scope.is_prng)
             && String.equal (longident_head od.popen_expr.txt) "Random"
           then
             report "R3" od.popen_expr.loc
               "stdlib Random breaks reproducibility; thread an explicit \
                Prng.t");
          default.open_description it od);
      module_declaration =
        (fun it md ->
          note_attrs md.pmd_attributes md.pmd_loc;
          default.module_declaration it md);
      value_description =
        (fun it vd ->
          note_attrs vd.pval_attributes vd.pval_loc;
          default.value_description it vd);
      signature_item =
        (fun it si ->
          (match si.psig_desc with
          | Psig_attribute a ->
              (* Floating [@@@lint.allow "..."] in a .mli suppresses for
                 the whole interface. *)
              note_attrs [ a ]
                {
                  si.psig_loc with
                  loc_start = { si.psig_loc.loc_start with pos_cnum = 0 };
                  loc_end = { si.psig_loc.loc_end with pos_cnum = max_int };
                }
          | _ -> ());
          default.signature_item it si);
    }
  in
  (findings, allows, iter)

let check_structure (scope : scope) (str : structure) :
    raw list * allow_span list =
  let findings, allows, iter = make_checker scope in
  iter.structure iter str;
  (!findings, !allows)

let check_signature (scope : scope) (sg : signature) :
    raw list * allow_span list =
  let findings, allows, iter = make_checker scope in
  iter.signature iter sg;
  (!findings, !allows)
