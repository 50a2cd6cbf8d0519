"""Frozen specification texts for the benchmark's monitors.

Texts live here rather than being printed from ``repro.speclib`` so a
later change to the library cannot silently change what is measured.
Map/Queue Window use registry builtins only; constants are sampled on
the input clock with ``held`` (a bare literal is an event at t=0 only).
The outputs equal those of ``speclib.map_window(2000)`` and
``speclib.queue_window(2000)`` on the same traces.
"""

#: The paper's "large" structure size (ours: 2000, see DESIGN.md).
LARGE = 2000

SEEN_SET = """\
in i: Int
def seen_m := merge(seen, set_empty(unit))
def seen_l := last(seen_m, i)
def was := set_contains(seen_l, i)
def seen := set_toggle(seen_l, i)
out was
"""

MAP_WINDOW = f"""\
in i: Int
def one := held(1, i)
def cap := held({LARGE}, i)
def dflt := held(-1, i)
def cnt_l := last(cnt, i)
def cnt := merge(cnt_l + one, 0)
def pos := cnt % cap
def mw_m := merge(mw, map_empty(unit))
def mw_l := last(mw_m, i)
def nth := map_get_or(mw_l, pos, dflt)
def mw := map_put(mw_l, pos, i)
out nth
"""

QUEUE_WINDOW = f"""\
in i: Int
def cap := held({LARGE}, i)
def dflt := held(-1, i)
def q_m := merge(q, queue_empty(unit))
def q_l := last(q_m, i)
def q1 := queue_enq(q_l, i)
def full := queue_size(q1) >= cap
def qf := filter(q1, full)
def nth := queue_front_or(qf, dflt)
def q := queue_deq_if(q1, full)
out nth
"""

#: A vector-eligible alert chain (last/sub/add feed-forward with a
#: sparse filtered output) plus a running-max scan whose new-high
#: events form a second sparse output.
COLUMNAR_ALERTS = """\
in x: Int
def prev := last(x, x)
def diff := x - prev
def s := diff + x
def spike := filter(s, s > 1800000)
def h := last(hi, x)
def k := max(h, x)
def hi := merge(k, x)
def rise := filter(hi, hi > h)
out spike, rise
"""

#: Table I DBAccessConstraint: no access before insert or after delete.
DB_ACCESS = """\
in ins: Int
in del_: Int
in acc: Int
def tick := merge(merge(ins, del_), acc)
def s_m := merge(cur, set_empty(unit))
def s_l := last(s_m, tick)
def ok := set_contains(s_l, acc)
def cur := set_update_if(s_l, ins, del_)
out ok
"""

FIG9 = {
    "seen_set": SEEN_SET,
    "map_window": MAP_WINDOW,
    "queue_window": QUEUE_WINDOW,
}
