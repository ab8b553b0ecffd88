"""Iterator/payload separation tests (incl. profile-guided memory flow)."""

from repro import compile_program
from repro.analysis.dynamic_deps import profile_program
from repro.analysis.loops import build_loop_forest
from repro.core.iterator_recognition import separate
from repro.ir.instructions import Reg


def separation_for(source, label, profile=False):
    module = compile_program(source)
    flow = None
    if profile:
        summary = profile_program(module, exec_backend="interp")
        flow = summary.loop(label).memory_flow
    func_name = label.rsplit(".L", 1)[0]
    func = module.functions[func_name]
    forest = build_loop_forest(func)
    loop = forest.loops[label]
    sep = separate(func, loop, flow)
    return func, sep


ARRAY_LOOP = """
func void main() {
  int[] a = new int[8];
  for (int i = 0; i < 8; i = i + 1) { a[i] = a[i] + 1; }
  print(a[0]);
}
"""


def test_affine_loop_iterator_is_induction():
    func, sep = separation_for(ARRAY_LOOP, "main.L0")
    iter_instrs = [
        func.blocks[b].instrs[i] for b, i in sep.iterator_sites
    ]
    # The iterator contains the increment and the compare; the payload
    # contains the element update.
    assert any(getattr(i, "op", None) == "+" for i in iter_instrs)
    assert sep.payload_sites
    assert Reg("i") in sep.iter_value_regs


PLDS_LOOP = """
struct Node { int val; Node* next; }
func void main() {
  Node* head = null;
  for (int k = 0; k < 4; k = k + 1) {
    Node* n = new Node; n->val = k; n->next = head; head = n;
  }
  Node* p = head;
  int s = 0;
  while (p) { s = s + p->val; p = p->next; }
  print(s);
}
"""


def test_pointer_chase_iterator():
    func, sep = separation_for(PLDS_LOOP, "main.L1")
    # p = p->next is the iterator; the accumulation is payload.
    iter_defs = set()
    for b, i in sep.iterator_sites:
        iter_defs.update(func.blocks[b].instrs[i].defs())
    assert Reg("p") in iter_defs
    assert not sep.payload_is_empty
    assert Reg("p") in sep.iter_value_regs


WORKLIST_LOOP = """
struct Node { int vert; Node* next; }
struct WL { int size; Node* head; }
func void push(WL* w, int v) {
  Node* n = new Node; n->vert = v; n->next = w->head;
  w->head = n; w->size = w->size + 1;
}
func int pop(WL* w) {
  Node* n = w->head; w->head = n->next; w->size = w->size - 1;
  return n->vert;
}
func void main() {
  WL* wl = new WL;
  int[] out = new int[8];
  for (int i = 0; i < 8; i = i + 1) { push(wl, i); }
  while (wl->size) {
    int v = pop(wl);
    out[v] = v * 2;
  }
  print(out[3]);
}
"""


def test_worklist_pop_requires_memory_flow():
    # Without profiling, the reg-level slice cannot see that pop() feeds
    # the loop condition through memory: pop lands in the payload.
    func, sep_static = separation_for(WORKLIST_LOOP, "main.L1", profile=False)
    static_iter_calls = [
        func.blocks[b].instrs[i]
        for b, i in sep_static.iterator_sites
        if type(func.blocks[b].instrs[i]).__name__ == "Call"
    ]
    assert not static_iter_calls

    func, sep = separation_for(WORKLIST_LOOP, "main.L1", profile=True)
    iter_calls = [
        func.blocks[b].instrs[i]
        for b, i in sep.iterator_sites
        if type(func.blocks[b].instrs[i]).__name__ == "Call"
    ]
    assert any(c.func == "pop" for c in iter_calls)
    # The payload (the out[] update) stays out of the iterator.
    assert sep.payload_sites
    assert Reg("v") in sep.iter_value_regs


def test_iterator_never_depends_on_payload():
    for source, label in ((ARRAY_LOOP, "main.L0"), (PLDS_LOOP, "main.L1")):
        func, sep = separation_for(source, label)
        payload_defs = set()
        for b, i in sep.payload_sites:
            payload_defs.update(func.blocks[b].instrs[i].defs())
        for b, i in sep.iterator_sites:
            for use in func.blocks[b].instrs[i].uses():
                assert use not in payload_defs


def test_empty_payload_detected():
    src = """
    struct Node { Node* next; }
    func void main() {
      Node* head = null;
      for (int k = 0; k < 3; k = k + 1) {
        Node* n = new Node; n->next = head; head = n;
      }
      Node* p = head;
      while (p) { p = p->next; }
      print(1);
    }
    """
    func, sep = separation_for(src, "main.L1")
    assert sep.payload_is_empty


def test_return_in_loop_is_exit_edge():
    src = """
    func int find(int[] a, int x) {
      for (int i = 0; i < len(a); i = i + 1) {
        if (a[i] == x) { return i; }
      }
      return 0 - 1;
    }
    func void main() { int[] a = new int[4]; print(find(a, 0)); }
    """
    module = compile_program(src)
    func = module.functions["find"]
    forest = build_loop_forest(func)
    loop = forest.loops["find.L0"]
    # The `return` block cannot reach the latch, so it sits *outside* the
    # natural loop: the loop sees it as a plain exit edge.
    sep = separate(func, loop)
    assert not sep.has_return
    ret_blocks = [
        b.name for b in func.ordered_blocks()
        if b.instrs and type(b.instrs[-1]).__name__ == "Ret"
    ]
    assert all(name not in loop.blocks for name in ret_blocks)


def test_iterator_share_bounds():
    _func, sep = separation_for(ARRAY_LOOP, "main.L0")
    assert 0.0 < sep.iterator_share < 1.0
    assert sep.iterator_share == len(sep.iterator_sites) / len(sep.all_sites)
