"""Per-layer tracing of stegoseal from outside the program.

The layers are the modules of src/stegoseal. Each public function in
SITES is replaced, where its caller looks it up, by a wrapper that times
the call and counts it. The wrapper returns and raises exactly what the
wrapped function does. A function's self time is its wrapped time minus
the time of wrapped calls nested inside it.

Counts are frozen after a fixed number of operations (Tracer.freeze), so
they repeat exactly for a given seed; self times cover every traced op.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from statistics import median
from time import perf_counter

# (metric prefix, module the caller looks the name up in, attribute path).
# pipeline and cli import most functions by name, so the wrapper must sit in
# their namespaces; pipeline calls digest.hash_message through the module,
# cli calls pipeline.seal/verify through the module, and to_bytes is a method.
SITES = (
    ("cipher.caesar_encrypt", "stegoseal.pipeline", "caesar_encrypt"),
    ("cipher.caesar_decrypt", "stegoseal.pipeline", "caesar_decrypt"),
    ("cipher.hill_encrypt", "stegoseal.pipeline", "hill_encrypt"),
    ("cipher.hill_decrypt", "stegoseal.pipeline", "hill_decrypt"),
    ("digest.hash_message", "stegoseal.digest", "hash_message"),
    ("payload.pack", "stegoseal.pipeline", "pack"),
    ("payload.unpack", "stegoseal.pipeline", "unpack"),
    ("payload.to_tiles", "stegoseal.pipeline", "to_tiles"),
    ("payload.from_tiles", "stegoseal.pipeline", "from_tiles"),
    ("transform.dct2", "stegoseal.pipeline", "dct2"),
    ("transform.idct2", "stegoseal.pipeline", "idct2"),
    ("transform.quantize", "stegoseal.pipeline", "quantize"),
    ("transform.dequantize", "stegoseal.pipeline", "dequantize"),
    ("transform.round_half_away", "stegoseal.pipeline", "round_half_away"),
    ("entropy.zigzag_scan", "stegoseal.pipeline", "zigzag_scan"),
    ("entropy.zigzag_unscan", "stegoseal.pipeline", "zigzag_unscan"),
    ("entropy.signed_to_symbol", "stegoseal.pipeline", "signed_to_symbol"),
    ("entropy.symbol_to_signed", "stegoseal.pipeline", "symbol_to_signed"),
    ("entropy.build_table", "stegoseal.pipeline", "build_table"),
    ("entropy.encode", "stegoseal.pipeline", "encode"),
    ("entropy.to_bytes", "stegoseal.entropy", "EncodedStream.to_bytes"),
    ("entropy.decode_prefix", "stegoseal.pipeline", "decode_prefix"),
    ("entropy.decode_prefix", "stegoseal.cli", "decode_prefix"),
    ("stego.embed", "stegoseal.pipeline", "embed"),
    ("stego.extract", "stegoseal.pipeline", "extract"),
    ("stego.capacity", "stegoseal.pipeline", "capacity"),
    ("pgm.read_pgm", "stegoseal.cli", "read_pgm"),
    ("pgm.write_pgm", "stegoseal.cli", "write_pgm"),
    ("pipeline.seal", "stegoseal.pipeline", "seal"),
    ("pipeline.verify", "stegoseal.pipeline", "verify"),
    ("cli.main", "stegoseal.cli", "main"),
)
FUNCTIONS = tuple(dict.fromkeys(name for name, _, _ in SITES))

# unit of every metric a traced run reports
METRICS = {}
for _name in FUNCTIONS:
    METRICS[f"{_name}.self_ms"] = "ms"
    METRICS[f"{_name}.calls"] = "count"
METRICS.update({
    "entropy.table_entries": "count",
    "entropy.header_bytes": "bytes",
    "entropy.payload_bytes": "bytes",
    "entropy.paper_stream_bytes": "bytes",
    "entropy.paper_ratio": "ratio",
    "stego.extract_bytes": "bytes",
    "stego.stream_share": "fraction",
    "cli.verify_attempts": "count",
    "pipeline.undecodable_frac": "fraction",
    "pipeline.tampered_frac": "fraction",
    "error_frac": "fraction",
    "trace_overhead_frac": "fraction",
})


class Tracer:
    """Wraps the functions in SITES and accumulates self time and counts."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.missing = []
        self._counting = True
        self._stack = []        # [name, seconds spent in wrapped callees]
        self._decoded = []      # decode_prefix return values
        self._verdicts = []
        self._extracted = 0
        self._cli_verifies = 0
        self._cli_attempts = 0
        self._frozen_calls = None
        self._hooks = {
            "stego.extract": self._on_extract,
            "entropy.decode_prefix": self._on_decode,
            "pipeline.verify": self._on_verify,
            "cli.main": self._on_main,
        }
        self._sites = self._resolve()

    def _resolve(self):
        """(owner, attribute, original, wrapper) for every site still present."""
        sites = []
        for name, module, path in SITES:
            *parents, attr = path.split(".")
            try:
                owner = importlib.import_module(module)
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{path}")
                continue
            sites.append((owner, attr, original, self._wrap(name, original)))
        return sites

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def freeze(self) -> None:
        """Stop collecting counts; self times keep accumulating."""
        self._counting = False
        self._frozen_calls = Counter(self.calls)

    def _wrap(self, name, fn):
        stack = self._stack
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([name, 0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, inner = stack.pop()
                self.self_s[name] += elapsed - inner
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None and self._counting:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _on_extract(self, args, kwargs, result):
        self._extracted += args[1] if len(args) > 1 else kwargs["length"]

    def _on_decode(self, args, kwargs, result):
        self._decoded.append(result)

    def _on_verify(self, args, kwargs, result):
        self._verdicts.append(result.verdict)
        if any(frame[0] == "cli.main" for frame in self._stack):
            self._cli_attempts += 1

    def _on_main(self, args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        if argv and argv[0] == "verify":
            self._cli_verifies += 1

    def metrics(self, ops: int, count_ops: int) -> dict:
        """Per-op metrics: self times over `ops` traced ops, counts over the
        first `count_ops` ops (the ones before freeze())."""
        calls = self._frozen_calls if self._frozen_calls is not None else self.calls
        out = {}
        for name in FUNCTIONS:
            out[f"{name}.self_ms"] = 1000 * self.self_s[name] / ops
            out[f"{name}.calls"] = calls[name] / count_ops
        stream_total = 0
        entries, headers, payloads = [], [], []
        for symbols, table, consumed in self._decoded:
            payload = (sum(len(table.codes[s]) for s in symbols) + 7) // 8
            entries.append(len(table.codes))
            payloads.append(payload)
            headers.append(consumed - payload)
            stream_total += consumed
        verdicts = Counter(self._verdicts)
        n_verdicts = max(len(self._verdicts), 1)
        out.update({
            "entropy.table_entries": median(entries) if entries else 0,
            "entropy.header_bytes": median(headers) if headers else 0,
            "entropy.payload_bytes": median(payloads) if payloads else 0,
            "stego.extract_bytes": self._extracted / count_ops,
            "stego.stream_share": stream_total / self._extracted if self._extracted else 0,
            "cli.verify_attempts": (self._cli_attempts / self._cli_verifies
                                    if self._cli_verifies else 0),
            "pipeline.undecodable_frac": verdicts["UNDECODABLE"] / n_verdicts,
            "pipeline.tampered_frac": verdicts["TAMPERED"] / n_verdicts,
        })
        return out
