"""Persisted records for discovered trees (one JSON object per line), each
a pure function of its tree's code and the parameters of its search."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .spectra import TreeSpectrum, _char_poly
from .trees import Tree


@dataclass
class CatalogRecord:
    """Everything needed to reproduce one catalog entry from its code, with
    the order cap and shard of the search that wrote it."""

    code: str
    order: int
    nullity: int
    spectrum: dict
    char_poly: str
    order_cap: int
    shard: str

    @classmethod
    def from_analysis(cls, code: str, analysis: TreeSpectrum,
                      order_cap: int, shard: str) -> "CatalogRecord":
        """The record of canonical code text and its analysis."""
        return cls(
            code=code,
            order=analysis.char_poly.degree,
            nullity=analysis.summary.nullity,
            spectrum={str(k): m for k, m in sorted(analysis.summary.roots.items())},
            char_poly=analysis.char_poly.to_text(),
            order_cap=order_cap,
            shard=shard,
        )

    def to_json(self) -> str:
        payload = {
            "code": self.code,
            "order": self.order,
            "nullity": self.nullity,
            "spectrum": self.spectrum,
            "char_poly": self.char_poly,
            "order_cap": self.order_cap,
            "shard": self.shard,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CatalogRecord":
        data = json.loads(line)
        return cls(code=data["code"], order=int(data["order"]),
                   nullity=int(data["nullity"]), spectrum=dict(data["spectrum"]),
                   char_poly=data["char_poly"], order_cap=data["order_cap"],
                   shard=data["shard"])

    def roundtrip_ok(self) -> bool:
        """Re-derive everything from the code and compare to stored fields."""
        code, order, parent = Tree.from_code(self.code).canonical_rooting()
        return self == CatalogRecord.from_analysis(
            ",".join(map(str, code)), TreeSpectrum.of(_char_poly(order, parent)),
            self.order_cap, self.shard)
