//! Mark phase of the mark–sweep collector.
//!
//! The interpreter and the bytecode VM keep their entire state in
//! explicit structures (control value, frame stack, environments,
//! globals), so the root set is exact — no conservative stack scanning.
//! Marking traverses cells through pairs and through values captured in
//! closures, partial applications, and environments.
//!
//! Roots are registered *by reference* through a [`Marker`]: a collection
//! never clones a root `Value` or `Env`. Only closure-shaped values met
//! during the traversal are kept on an owned worklist (an `Rc` bump, not
//! a deep copy); plain cells travel as bare [`CellRef`] indices.

use crate::heap::{CellRef, GcKind, Heap};
use crate::value::{CaptureEnv, Env, Value};
use std::collections::HashSet;
use std::rc::Rc;

/// An in-progress mark phase. Register every root with the `root_*`
/// methods, then call [`Marker::finish`] to run the traversal and obtain
/// the mark bitmap for [`Heap::sweep`].
pub struct Marker<'p> {
    marked: Vec<bool>,
    seen_envs: HashSet<*const ()>,
    seen_caps: HashSet<*const ()>,
    /// Cells whose car/cdr still need scanning.
    cells: Vec<CellRef>,
    /// Closure-shaped values whose innards still need scanning.
    pending: Vec<Value<'p>>,
    roots: usize,
}

/// Queues the cell or closure guts of `v` without cloning scalars.
fn note<'p>(cells: &mut Vec<CellRef>, pending: &mut Vec<Value<'p>>, v: &Value<'p>) {
    match v {
        Value::Int(_) | Value::Bool(_) | Value::Nil => {}
        Value::Pair(c) | Value::Tuple(c) => cells.push(*c),
        Value::Prim(_) | Value::Func(_) => {}
        Value::Closure(_) | Value::PartialFunc(_) | Value::PrimApp(_) | Value::VmClosure(_) => {
            pending.push(v.clone());
        }
    }
}

impl<'p> Marker<'p> {
    /// Starts a mark phase sized to `heap`.
    pub fn new(heap: &Heap<'p>) -> Self {
        Marker {
            marked: vec![false; heap.capacity()],
            seen_envs: HashSet::new(),
            seen_caps: HashSet::new(),
            cells: Vec::new(),
            pending: Vec::new(),
            roots: 0,
        }
    }

    /// Registers a root value (borrowed; nothing scalar is cloned).
    pub fn root_value(&mut self, v: &Value<'p>) {
        self.roots += 1;
        note(&mut self.cells, &mut self.pending, v);
    }

    /// Registers a whole environment chain as a root.
    pub fn root_env(&mut self, env: &Env<'p>) {
        self.roots += 1;
        let Marker {
            seen_envs,
            cells,
            pending,
            ..
        } = self;
        env.for_each_value(seen_envs, &mut |v| note(cells, pending, v));
    }

    /// Registers a bare cell as a root (e.g. a `DCONS` target held by a
    /// continuation frame).
    pub fn root_cell(&mut self, c: CellRef) {
        self.roots += 1;
        self.cells.push(c);
    }

    /// Registers a VM capture environment as a root.
    pub fn root_captures(&mut self, cap: &Rc<CaptureEnv<'p>>) {
        self.roots += 1;
        self.trace_caps(cap);
    }

    /// Seeds a **minor** mark phase with the heap's remembered set: the
    /// *referents* of each remembered old cell are roots (the old cell
    /// itself is outside a minor collection's jurisdiction). Dead or
    /// stale entries are skipped.
    pub fn root_remset(&mut self, heap: &Heap<'p>) {
        for &idx in heap.remset_cells() {
            let Some((car, cdr)) = heap.peek(CellRef(idx)) else {
                continue;
            };
            self.roots += 1;
            note(&mut self.cells, &mut self.pending, car);
            note(&mut self.cells, &mut self.pending, cdr);
        }
    }

    /// Number of roots registered so far (assertable in tests: the root
    /// set is exact, so its size is predictable).
    pub fn roots_seen(&self) -> usize {
        self.roots
    }

    fn trace_caps(&mut self, cap: &Rc<CaptureEnv<'p>>) {
        if !self.seen_caps.insert(Rc::as_ptr(cap) as *const ()) {
            return;
        }
        for v in &cap.values {
            note(&mut self.cells, &mut self.pending, v);
        }
    }

    /// Runs the full traversal and returns the mark bitmap (for
    /// [`Heap::sweep`]).
    pub fn finish(self, heap: &Heap<'p>) -> Vec<bool> {
        self.run(heap, false)
    }

    /// Runs a **minor** traversal: old cells are cut points — they are
    /// neither marked nor traversed into, because a minor collection
    /// cannot free them and every live old→young edge is covered by the
    /// remembered set (seed it with [`Marker::root_remset`]). Region
    /// cells are traversed like young ones: the region, not this
    /// collection, frees them, and they may guard young referents. The
    /// bitmap is only meaningful for nursery cells; pass it to
    /// [`Heap::sweep_minor`].
    pub fn finish_minor(self, heap: &Heap<'p>) -> Vec<bool> {
        self.run(heap, true)
    }

    fn run(mut self, heap: &Heap<'p>, minor: bool) -> Vec<bool> {
        loop {
            while let Some(c) = self.cells.pop() {
                let idx = c.0 as usize;
                if idx >= self.marked.len() || self.marked[idx] {
                    continue;
                }
                if minor && heap.is_old_cell(c.0) {
                    continue; // old generation: a minor never frees it
                }
                let Some((car, cdr)) = heap.peek(c) else {
                    continue; // dead cell: not marked, not traversed
                };
                self.marked[idx] = true;
                note(&mut self.cells, &mut self.pending, car);
                note(&mut self.cells, &mut self.pending, cdr);
            }
            let Some(v) = self.pending.pop() else {
                break;
            };
            match v {
                Value::Closure(clo) => {
                    let Marker {
                        seen_envs,
                        cells,
                        pending,
                        ..
                    } = &mut self;
                    clo.env
                        .for_each_value(seen_envs, &mut |x| note(cells, pending, x));
                }
                Value::PartialFunc(p) => {
                    for a in &p.applied {
                        note(&mut self.cells, &mut self.pending, a);
                    }
                }
                Value::PrimApp(p) => {
                    note(&mut self.cells, &mut self.pending, &p.first);
                }
                Value::VmClosure(c) => self.trace_caps(&c.env),
                _ => {}
            }
        }
        self.marked
    }
}

/// Runs one collection at a GC poll, for both engines: `roots` registers
/// the engine's root set (it may be called twice). A forced GC is major;
/// otherwise [`Heap::collect_kind`] picks, and a minor that leaves the
/// heap still wanting a collection escalates to a major in this poll.
pub fn collect<'p>(heap: &mut Heap<'p>, force_major: bool, roots: impl Fn(&mut Marker<'p>)) {
    if !force_major && heap.collect_kind() == GcKind::Minor {
        let mut m = Marker::new(heap);
        roots(&mut m);
        m.root_remset(heap);
        let marked = m.finish_minor(heap);
        heap.sweep_minor(&marked);
        if !heap.should_collect() {
            return;
        }
    }
    let mut m = Marker::new(heap);
    roots(&mut m);
    let marked = m.finish(heap);
    heap.sweep(&marked);
}

/// Computes the mark bitmap for the given (borrowed) roots. Environments
/// reachable from closures are deduplicated by node address, so shared
/// environment suffixes are traversed once.
pub fn mark<'a, 'p: 'a>(
    heap: &Heap<'p>,
    root_values: impl IntoIterator<Item = &'a Value<'p>>,
    root_envs: impl IntoIterator<Item = &'a Env<'p>>,
) -> Vec<bool> {
    let mut m = Marker::new(heap);
    for v in root_values {
        m.root_value(v);
    }
    for env in root_envs {
        m.root_env(env);
    }
    m.finish(heap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::value::Env;
    use nml_opt::AllocMode;
    use nml_syntax::Symbol;

    const NO_VALUES: [&Value<'static>; 0] = [];
    const NO_ENVS: [&Env<'static>; 0] = [];

    #[test]
    fn unreachable_cells_are_unmarked() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let _b = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(a);
        let marked = mark(&h, [&root], NO_ENVS);
        assert!(marked[a.0 as usize]);
        assert_eq!(marked.iter().filter(|&&m| m).count(), 1);
    }

    #[test]
    fn marking_follows_spines_and_elements() {
        let mut h = Heap::new(HeapConfig::default());
        let inner = h.alloc(Value::Int(9), Value::Nil, AllocMode::Heap);
        let outer = h.alloc(Value::Pair(inner), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(outer);
        let marked = mark(&h, [&root], NO_ENVS);
        assert!(marked[inner.0 as usize]);
        assert!(marked[outer.0 as usize]);
    }

    #[test]
    fn env_roots_are_traversed() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let env = Env::empty().bind(Symbol::intern("x"), Value::Pair(c));
        let marked = mark(&h, NO_VALUES, [&env]);
        assert!(marked[c.0 as usize]);
    }

    #[test]
    fn partial_application_roots() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let v = Value::PrimApp(std::rc::Rc::new(crate::value::PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Pair(c),
        }));
        let marked = mark(&h, [&v], NO_ENVS);
        assert!(marked[c.0 as usize]);
    }

    #[test]
    fn cyclic_structures_terminate() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        // Tie a cycle through DCONS-style mutation.
        h.set(a, Value::Int(1), Value::Pair(a)).unwrap();
        let root = Value::Pair(a);
        let marked = mark(&h, [&root], NO_ENVS);
        assert!(marked[a.0 as usize]);
    }

    #[test]
    fn vm_capture_env_roots_are_traversed_once() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let cap = Rc::new(CaptureEnv {
            values: vec![Value::Pair(c), Value::Int(5)],
            rec: vec![0, 1],
        });
        let mut m = Marker::new(&h);
        // Two closures sharing one capture env: deduplicated by address.
        m.root_value(&Value::VmClosure(Rc::new(crate::value::VmClosure {
            chunk: 0,
            env: cap.clone(),
        })));
        m.root_value(&Value::VmClosure(Rc::new(crate::value::VmClosure {
            chunk: 1,
            env: cap.clone(),
        })));
        assert_eq!(m.roots_seen(), 2);
        let marked = m.finish(&h);
        assert!(marked[c.0 as usize]);
    }

    #[test]
    fn minor_mark_stops_at_old_cells() {
        let mut h = Heap::new(HeapConfig::default());
        // young ← old ← young chain, rooted at the top young cell.
        let deep_young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let old = h.alloc(Value::Pair(deep_young), Value::Nil, AllocMode::Pretenured);
        let top_young = h.alloc(Value::Pair(old), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(top_young);
        let mut m = Marker::new(&h);
        m.root_value(&root);
        let marked = m.finish_minor(&h);
        assert!(marked[top_young.0 as usize], "young root marked");
        assert!(!marked[old.0 as usize], "old cell is a cut point");
        assert!(
            !marked[deep_young.0 as usize],
            "not traversed through the old cell — the remset covers it"
        );
        // The alloc-time barrier did record the old→young edge, so the
        // full minor protocol (roots + remset) keeps deep_young alive.
        let mut m = Marker::new(&h);
        m.root_value(&root);
        m.root_remset(&h);
        let marked = m.finish_minor(&h);
        assert!(marked[deep_young.0 as usize]);
    }

    #[test]
    fn minor_mark_traverses_region_cells() {
        let mut h = Heap::new(HeapConfig::default());
        let young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let _r = h.push_region(nml_opt::RegionKind::Stack);
        let region_cell = h.alloc(Value::Pair(young), Value::Nil, AllocMode::Stack);
        let root = Value::Pair(region_cell);
        let mut m = Marker::new(&h);
        m.root_value(&root);
        let marked = m.finish_minor(&h);
        assert!(
            marked[young.0 as usize],
            "young cell reached through a region cell"
        );
    }

    #[test]
    fn root_count_is_exact() {
        let h = Heap::new(HeapConfig::default());
        let mut m = Marker::new(&h);
        let v = Value::Int(1);
        let env = Env::empty();
        m.root_value(&v);
        m.root_env(&env);
        m.root_cell(CellRef(0));
        assert_eq!(m.roots_seen(), 3);
    }
}
