#!/usr/bin/env python3
"""Flat profile of a gmon.out PC histogram, charged by symbol size.

gprof 2.40 leaves some GCC clone symbols out of its symbol table (for
example `Router::stage_vc_allocation [clone .constprop.0]` in the perfbench
build) and charges their samples to the symbol placed before them in the
binary, so a hot function can vanish from its flat profile under another
function's name.  This script reads the histogram itself and charges each
bin to the function whose `nm --print-size` address range holds it, so
every sized text symbol keeps its own samples.

Usage: scripts/gmon_flat.py <binary> <gmon.out> [--top N]

Prints one line per function with samples, hottest first: percent of all
samples, cumulative and self seconds, and the demangled name.  Samples
outside every sized symbol are listed as <unknown>.
"""
import argparse
import bisect
import struct
import subprocess
import sys


def read_histogram(path):
    """Returns (rate, [(low_pc, high_pc, counts), ...]) of a gmon.out."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        sys.exit(f"{path}: not a gmon.out file")
    pos = 20  # cookie, version, 12 spare bytes
    rate = 0
    hists = []
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == 0:  # histogram
            low, high, size, rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 16  # the dimension name and its abbreviation
            counts = struct.unpack_from(f"<{size}H", data, pos)
            pos += 2 * size
            hists.append((low, high, counts))
        elif tag == 1:  # call-graph arc: from pc, self pc, count
            pos += 20
        elif tag == 2:  # basic-block counts
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + 16 * n
        else:
            sys.exit(f"{path}: unknown record tag {tag}")
    return rate, hists


def read_symbols(binary):
    """Sized text symbols as sorted (start, end, name) triples."""
    out = subprocess.run(
        ["nm", "--print-size", "--defined-only", "-C", binary],
        check=True, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(maxsplit=3)
        if len(parts) != 4 or parts[2] not in "tTwW":
            continue
        start, size = int(parts[0], 16), int(parts[1], 16)
        if size > 0:
            syms.append((start, start + size, parts[3]))
    syms.sort()
    return syms


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("binary")
    ap.add_argument("gmon")
    ap.add_argument("--top", type=int, default=40)
    args = ap.parse_args()

    rate, hists = read_histogram(args.gmon)
    syms = read_symbols(args.binary)
    starts = [s[0] for s in syms]
    samples = {}
    for low, high, counts in hists:
        scale = (high - low) / len(counts)
        for i, n in enumerate(counts):
            if n == 0:
                continue
            pc = low + int(i * scale)
            k = bisect.bisect_right(starts, pc) - 1
            name = syms[k][2] if k >= 0 and pc < syms[k][1] else "<unknown>"
            samples[name] = samples.get(name, 0) + n

    total = sum(samples.values())
    seconds = 1.0 / rate if rate else 0.01
    print(f"Flat profile: {total} samples of {seconds:g} s, charged by "
          "symbol address range")
    print(f"{'%':>6} {'cumulative':>11} {'self':>9}")
    print(f"{'time':>6} {'seconds':>11} {'seconds':>9}  name")
    cumulative = 0.0
    for name, n in sorted(samples.items(), key=lambda kv: (-kv[1], kv[0])
                          )[:args.top]:
        cumulative += n * seconds
        print(f"{100.0 * n / total:6.2f} {cumulative:11.2f} "
              f"{n * seconds:9.2f}  {name}")


if __name__ == "__main__":
    main()
