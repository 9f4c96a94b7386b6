"""Reference evaluator that every output check of the benchmark relies on.

It walks the six core node kinds of a parsed term with an explicit stack,
so deep terms (printed normal forms) need no recursion, and it shares no
code with the evaluators under test: it reads only the node fields.  Values
may be floats or numpy arrays.  With ``weight`` given, the product is the
weighted product ``weight * a * b`` of the diagonal and cylinder models;
otherwise it is the plain real product.
"""

import numpy as np


def ref_eval(term, env, weight=None):
    """Value of ``term`` with variables read from ``env``."""
    done = {}
    stack = [term]
    while stack:
        node = stack[-1]
        kind = type(node).__name__
        kids = [getattr(node, f) for f in ("child", "left", "right") if hasattr(node, f)]
        waiting = [k for k in kids if id(k) not in done]
        if waiting:
            stack.extend(waiting)
            continue
        stack.pop()
        vals = [done[id(k)][1] for k in kids]
        if kind == "Zero":
            value = 0.0
        elif kind == "Var":
            value = env[node.name]
        elif kind == "Scale":
            value = node.coeff * vals[0]
        elif kind == "Add":
            value = vals[0] + vals[1]
        elif kind == "Join":
            value = np.maximum(vals[0], vals[1])
        elif kind == "Mul":
            value = vals[0] * vals[1] if weight is None else weight * vals[0] * vals[1]
        else:
            raise TypeError(f"not a core node: {kind}")
        # Keep the node alive with its value so that its id stays unique.
        done[id(node)] = (node, value)
    return done[id(term)][1]
