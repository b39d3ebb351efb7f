"""Span tracing of a package from outside it.

The package's modules look their collaborators up as module attributes at
call time, so wrapping those attributes records every call without
touching the package source. A span is [name, start, end, parent]: the
parent is the index of the enclosing span, or -1 for a root. Spans stay in
memory; the caller writes them out when the run ends.
"""

import contextlib
import sys
import time


def package_modules(package):
    prefix = package + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


@contextlib.contextmanager
def patched(package, fn, replacement):
    """Rebind every attribute of the package's modules that holds `fn` to
    `replacement` for the duration of the block."""
    bound = [(m, attr) for m in package_modules(package)
             for attr, value in list(vars(m).items()) if value is fn]
    for module, attr in bound:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in bound:
            setattr(module, attr, fn)


class Tracer:
    """Records a span for every call of `targets` ("module.function",
    relative to `package`) while installed.

    `on_return` maps a target to a callback(result, span_index) that can
    record a size or a count at the same boundary as the span.
    """

    def __init__(self, package, targets, on_return=None):
        self.package = package
        self.targets = list(targets)
        self.on_return = dict(on_return or {})
        self.spans = []
        self._stack = []
        self._origin = time.perf_counter()

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the caller, e.g. around one benchmark operation."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name, fn):
        hook = self.on_return.get(name)

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(result, index)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target the package has for the duration of the block;
        a missing target records no spans."""
        with contextlib.ExitStack() as stack:
            for target in self.targets:
                module_name, func_name = target.rsplit(".", 1)
                home = sys.modules.get(f"{self.package}.{module_name}")
                fn = getattr(home, func_name, None)
                if fn is not None:
                    stack.enter_context(
                        patched(self.package, fn, self._wrap(target, fn)))
            yield self

    def descendants(self, root):
        """Indices of every span nested under span `root`."""
        inside = {root}
        out = []
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
        return out

    def totals(self, indices):
        """Per span name: [self seconds, calls, total seconds] summed over
        `indices`. Self time is a span's duration minus its direct
        children's; total time is the whole duration."""
        child_time = {}
        for i in indices:
            _, start, end, parent = self.spans[i]
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        out = {}
        for i in indices:
            name, start, end, _ = self.spans[i]
            entry = out.setdefault(name, [0.0, 0, 0.0])
            entry[0] += (end - start) - child_time.get(i, 0.0)
            entry[1] += 1
            entry[2] += end - start
        return out

    def dump(self):
        """Spans with times in seconds since the tracer was created."""
        return [[name, start - self._origin, end - self._origin, parent]
                for name, start, end, parent in self.spans]
