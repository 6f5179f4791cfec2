"""Persisted records for discovered trees (one JSON object per line)."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .spectra import TreeSpectrum
from .trees import Tree


@dataclass
class CatalogRecord:
    """Everything needed to reproduce one catalog entry from its code."""

    code: str
    order: int
    nullity: int
    spectrum: dict
    char_poly: str
    order_cap: Optional[int] = None
    shard: Optional[str] = None
    timestamp: Optional[str] = None

    @classmethod
    def from_analysis(cls, code: str, analysis: TreeSpectrum,
                      order_cap: Optional[int] = None,
                      shard: Optional[str] = None,
                      timestamp: Optional[str] = None) -> "CatalogRecord":
        """The record of canonical code text and its analysis."""
        return cls(
            code=code,
            order=analysis.char_poly.degree,
            nullity=analysis.summary.nullity,
            spectrum={str(k): m for k, m in sorted(analysis.summary.roots.items())},
            char_poly=analysis.char_poly.to_text(),
            order_cap=order_cap,
            shard=shard,
            timestamp=timestamp,
        )

    def to_json(self) -> str:
        payload = {
            "code": self.code,
            "order": self.order,
            "nullity": self.nullity,
            "spectrum": self.spectrum,
            "char_poly": self.char_poly,
        }
        if self.order_cap is not None:
            payload["order_cap"] = self.order_cap
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.timestamp is not None:
            payload["timestamp"] = self.timestamp
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CatalogRecord":
        data = json.loads(line)
        return cls(code=data["code"], order=int(data["order"]),
                   nullity=int(data["nullity"]), spectrum=dict(data["spectrum"]),
                   char_poly=data["char_poly"],
                   order_cap=data.get("order_cap"), shard=data.get("shard"),
                   timestamp=data.get("timestamp"))

    def roundtrip_ok(self) -> bool:
        """Re-derive everything from the code and compare to stored fields."""
        tree = Tree.from_code(self.code)
        fresh = CatalogRecord.from_analysis(tree.code_str(),
                                            TreeSpectrum.analyze(tree))
        return (fresh.code == self.code and fresh.order == self.order
                and fresh.nullity == self.nullity
                and fresh.spectrum == self.spectrum
                and fresh.char_poly == self.char_poly)
