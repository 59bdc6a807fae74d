type scope = {
  file : string;
  in_lib : bool;
  in_bench : bool;
  in_parallel : bool;
  in_obs : bool;
  is_clock : bool;
  is_resource : bool;
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
      title = "no stdlib Random";
      remedy = "thread an explicit Prng.t seeded from the experiment config";
    };
    {
      id = "R4";
      title =
        "no ambient I/O from lib/: the std channels and their printers and \
         readers, open/close/input/output on channels, In_channel, \
         Out_channel, Sys.getenv and Sys file calls, Unix apart from R8's \
         clock reads";
      remedy =
        "emit through Obs sinks, write to a formatter or channel the caller \
         passes, or return values to the caller";
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
         outside lib/obs/obs_clock.ml, and no Obs_clock in lib/ outside \
         lib/obs/";
      remedy =
        "route timing through Obs_clock, whose monotonic high-water clamp \
         keeps span durations non-negative; in lib/, time a call with \
         Obs.span, so that no answer can read the clock";
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
      id = "R14";
      title =
        "no toplevel mutable state in lib/ (ref, Atomic, Hashtbl, Buffer, \
         Queue, Stack, or an Array or Bytes built by make/init/create)";
      remedy =
        "hold the state in an explicit handle that the caller creates and \
         passes through call-sites, so answers stay independent of call \
         history and bit-reproducible";
    };
    {
      id = "M1";
      title = "no unused [@lint.allow] suppression";
      remedy = "delete the stale attribute";
    };
  ]

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

let deref_of_var name e =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "!"; _ }; _ },
        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident v; _ }; _ }) ] )
    ->
      String.equal v name
  | _ -> false

(* A module path as its segments, without a leading [Stdlib.]. *)
let path_of lid =
  let rec go acc = function
    | Longident.Lident s -> Some (s :: acc)
    | Longident.Ldot (l, s) -> go (s :: acc) l
    | Longident.Lapply _ -> None
  in
  match go [] lid with
  | Some ("Stdlib" :: (_ :: _ as rest)) -> Some rest
  | p -> p

(* R4: stdlib values that reach a std channel, open or close a file, or
   move bytes through a channel. [flush] is not here: [Uniqueness] binds
   its own, and a flush needs a channel, which these already flag. *)
let ambient_io_values =
  [
    "stdin"; "stdout"; "stderr"; "print_char"; "print_string"; "print_bytes";
    "print_int"; "print_float"; "print_endline"; "print_newline";
    "prerr_char"; "prerr_string"; "prerr_bytes"; "prerr_int"; "prerr_float";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int"; "read_int_opt";
    "read_float"; "read_float_opt"; "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen"; "close_in"; "close_in_noerr";
    "close_out"; "close_out_noerr"; "input_char"; "input_line"; "input_byte";
    "input_binary_int"; "input_value"; "really_input"; "really_input_string";
    "output_char"; "output_string"; "output_bytes"; "output_substring";
    "output_byte"; "output_binary_int"; "output_value"; "flush_all";
  ]

let sys_io =
  [
    "getenv"; "getenv_opt"; "command"; "file_exists"; "is_directory";
    "is_regular_file"; "readdir"; "remove"; "rename"; "getcwd"; "chdir";
    "mkdir"; "rmdir";
  ]

let is_ambient_io = function
  | [ v ] -> List.mem v ambient_io_values
  | [ "Sys"; f ] -> List.mem f sys_io
  | [ "Unix"; ("gettimeofday" | "time") ] -> false (* R8's, reported once *)
  | [ ("Printf" | "Format"); ("printf" | "eprintf") ]
  | [ "Format"; ("std_formatter" | "err_formatter") ]
  | [ "Fmt"; ("pr" | "epr" | "stdout" | "stderr") ]
  | [ "Filename"; ("temp_file" | "open_temp_file" | "temp_dir") ]
  | ("In_channel" | "Out_channel" | "Unix") :: _ :: _ ->
      true
  | _ -> false

(* Modules whose every use from lib/ is ambient I/O, so an alias or an
   [open] of one is flagged like a qualified call. *)
let is_io_module = function
  | [ ("Unix" | "In_channel" | "Out_channel") ] -> true
  | _ -> false

(* R14: calls that allocate a mutable container. *)
let is_mutable_alloc = function
  | [ "ref" ]
  | [ "Hashtbl"; ("create" | "of_seq") ]
  | [ "Atomic"; "make" ]
  | [ ("Buffer" | "Queue" | "Stack"); "create" ]
  | [ "Array"; ("make" | "init" | "make_matrix" | "create_float") ]
  | [ "Bytes"; ("make" | "init" | "create") ] ->
      true
  | _ -> false

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
  (* R3, R4 and R8's Obs_clock fence on a value path, or with
     [is_io_module] on a module alias or open. *)
  let check_path ~is_io lid loc =
    match path_of lid with
    | None -> ()
    | Some p ->
        if String.equal (List.hd p) "Random" then
          report "R3" loc
            "stdlib Random breaks reproducibility; thread an explicit Prng.t";
        if
          scope.in_lib && (not scope.in_obs)
          && String.equal (List.hd p) "Obs_clock"
        then
          report "R8" loc
            (Printf.sprintf
               "%s reads the wall clock in lib/ outside lib/obs; time a call \
                with Obs.span, so that no answer can read the clock"
               (String.concat "." p));
        if scope.in_lib && is_io p then
          report "R4" loc
            (Printf.sprintf
               "%s is ambient I/O in lib/; emit through Obs sinks, write to a \
                formatter or channel the caller passes, or return values"
               (String.concat "." p))
  in
  let check_ident lid loc =
    (match path_of lid with
    | Some [ "Obj"; ("magic" | "repr") ] ->
        report "R6" loc
          "Obj.magic/Obj.repr defeat the type system; restructure the types"
    | Some [ "Domain"; "spawn" ] when not scope.in_parallel ->
        report "R7" loc
          "raw Domain.spawn outside lib/parallel/; run the work through \
           Domain_pool so the determinism contract stays auditable"
    | Some [ "Unix"; (("gettimeofday" | "time") as fn) ]
      when not scope.is_clock ->
        report "R8" loc
          (Printf.sprintf
             "Unix.%s reads the wall clock directly; route timing through \
              Obs_clock"
             fn)
    | Some [ "Sys"; "time" ] when not scope.is_clock ->
        report "R8" loc
          "Sys.time reads the process clock directly; route timing through \
           Obs_clock"
    | Some [ "Gc"; (("stat" | "quick_stat" | "counters") as fn) ]
      when not scope.is_resource ->
        report "R9" loc
          (Printf.sprintf
             "Gc.%s samples the runtime directly; go through Obs_resource, \
              which budgets the cost and keeps sampling points deterministic"
             fn)
    | _ -> ());
    check_path ~is_io:is_ambient_io lid loc
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
  (* R14: a structure-level binding in lib/ whose right-hand side
     allocates a mutable container outside any function body is
     module-lifetime state — answers that depend on call history, and a
     race once two pool chunks reach it. The scan descends only through
     constructors that evaluate at module init (let/sequence/tuple/
     record/construct/if/apply arguments...); anything else — in
     particular function and lazy bodies, whose allocations are per-call
     — is skipped, so the local scratch tables built inside calls stay
     legal. *)
  let rec r14_scan_static e =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _ :: _) -> (
        match path_of txt with
        | Some p when is_mutable_alloc p ->
            report "R14" e.pexp_loc
              (Printf.sprintf
                 "toplevel %s allocates module-lifetime mutable state in \
                  lib/; hold it in an explicit handle that the caller \
                  creates and passes"
                 (String.concat "." p))
        | _ -> ())
    | _ -> ());
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
    if scope.in_lib then
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
          | Pmod_ident { txt; loc } -> check_path ~is_io:is_io_module txt loc
          | _ -> ());
          default.module_expr it me);
      (* Interface-side checks: the same R3 and R4 fences apply to
         aliases ([module S = Random]) and opens written in a .mli, and
         attributes on declarations still carry [@lint.allow] spans. *)
      module_type =
        (fun it mt ->
          (match mt.pmty_desc with
          | Pmty_alias { txt; loc } -> check_path ~is_io:is_io_module txt loc
          | _ -> ());
          default.module_type it mt);
      open_description =
        (fun it od ->
          check_path ~is_io:is_io_module od.popen_expr.txt od.popen_expr.loc;
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
