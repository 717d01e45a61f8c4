#!/usr/bin/env python3
"""Prints self and inclusive CPU shares per function from a sampler file.

Usage: symbolize.py PROFILE [--top N] [--match REGEX]

PROFILE is what sampler.so wrote ($HJ_SAMPLER_OUT.<pid>): the process's
memory map, then one line of hex return addresses per sample, innermost
first. Each address is mapped to its module and file offset and resolved
with `addr2line -f -C` (binutils); a module without symbols shows as
`module+0xoffset`. A function's self share counts the samples whose
innermost frame it is; its inclusive share counts the samples it appears
in at least once. Frames past the first are return addresses, so they are
looked up one byte back, inside the call. --match keeps only the inclusive
rows whose name matches REGEX (e.g. 'unordered_map|FinalizeShard').

A function of a shared library carries the library's name in brackets. A
stripped library (a distribution's libc, say) resolves only to its
exported symbols, so its internal functions (the memmove variants, for
one) show under the nearest exported name: read those rows by library.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys


def read_profile(path):
    maps, samples = [], []
    section = None
    with open(path) as f:
        for line in f:
            if line.startswith("# maps"):
                section = "maps"
                continue
            if line.startswith("# samples"):
                section = "samples"
                continue
            if section == "maps":
                parts = line.split()
                if len(parts) < 6 or "x" not in parts[1]:
                    continue
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5]))
            elif section == "samples":
                frames = [int(x, 16) for x in line.split()]
                if frames:
                    samples.append(frames)
    maps.sort()
    return maps, samples


def locate(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and maps[i][0] <= addr < maps[i][1]:
        lo, _, offset, module = maps[i]
        return module, addr - lo + offset
    return None, addr


def symbolize(by_module):
    """{module: set(offsets)} -> {(module, offset): name}."""
    names = {}
    for module, offsets in by_module.items():
        offsets = sorted(offsets)
        short = os.path.basename(module)
        resolved = []
        if os.path.exists(module):
            proc = subprocess.run(
                ["addr2line", "-f", "-C", "-e", module] +
                [hex(o) for o in offsets],
                capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode == 0 and len(lines) == 2 * len(offsets):
                resolved = lines[0::2]
        for i, offset in enumerate(offsets):
            name = resolved[i] if i < len(resolved) else "??"
            if name == "??":
                name = "%s+%#x" % (short, offset)
            elif ".so" in short:
                name += " [%s]" % short
            names[(module, offset)] = name
    return names


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=40)
    parser.add_argument("--match", default=None)
    args = parser.parse_args()

    maps, samples = read_profile(args.profile)
    if not samples:
        sys.exit("no samples in " + args.profile)
    starts = [m[0] for m in maps]
    keyed = []
    by_module = collections.defaultdict(set)
    for frames in samples:
        row = []
        for depth, addr in enumerate(frames):
            module, offset = locate(maps, starts, addr if depth == 0 else addr - 1)
            if module is None:
                continue
            by_module[module].add(offset)
            row.append((module, offset))
        keyed.append(row)
    names = symbolize(by_module)

    self_count = collections.Counter()
    incl_count = collections.Counter()
    for row in keyed:
        if not row:
            continue
        funcs = [names[k] for k in row]
        self_count[funcs[0]] += 1
        for name in set(funcs):
            incl_count[name] += 1

    total = len(samples)
    print("%d samples" % total)
    print("\n%-8s %s" % ("self%", "function"))
    for name, n in self_count.most_common(args.top):
        print("%7.2f  %s" % (100.0 * n / total, name[:160]))
    print("\n%-8s %s" % ("incl%", "function"))
    pattern = re.compile(args.match) if args.match else None
    shown = 0
    for name, n in incl_count.most_common():
        if pattern is not None and not pattern.search(name):
            continue
        print("%7.2f  %s" % (100.0 * n / total, name[:160]))
        shown += 1
        if shown >= args.top:
            break


if __name__ == "__main__":
    main()
