//! Snapshot files: a whole-graph image plus the epoch it captures.
//!
//! # File format (`GSNP`, version 1)
//!
//! ```text
//! header:  magic "GSNP" | version u32 LE | checksum u64 LE (FNV-1a over payload)
//! payload: epoch u64 LE | graph image
//! image:   node count u32 | count × (name, labels, properties)
//!          edge count u32 | count × (name, src u32, dst u32, directed u8,
//!                                    labels, properties)
//! ```
//!
//! The image is **canonical**: elements in id order, labels in `BTreeSet`
//! order, properties in `BTreeMap` order. Two graphs are therefore equal
//! as property graphs iff their images are byte-identical, which is what
//! the crash-recovery tests mean by "bit-identical" — see
//! [`graph_digest`]. Writes go through a temp file and an atomic rename,
//! so a crash mid-snapshot leaves the previous snapshot intact.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

use property_graph::{Endpoints, PropertyGraph};

use crate::codec::{fnv1a64, put_props, put_str, put_strs, put_u32, put_u64, DecodeError, Reader};

/// Magic bytes at the head of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"GSNP";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Encodes the canonical image of `g` (no header, no epoch).
pub fn encode_graph(g: &PropertyGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, g.node_count() as u32);
    for n in g.nodes() {
        let data = g.node(n);
        put_str(&mut buf, &data.name);
        put_strs(&mut buf, data.labels.iter());
        put_props(&mut buf, data.properties.iter());
    }
    put_u32(&mut buf, g.edge_count() as u32);
    for e in g.edges() {
        let data = g.edge(e);
        put_str(&mut buf, &data.name);
        let (a, b) = data.endpoints.pair();
        put_u32(&mut buf, a.0);
        put_u32(&mut buf, b.0);
        buf.push(u8::from(data.endpoints.is_directed()));
        put_strs(&mut buf, data.labels.iter());
        put_props(&mut buf, data.properties.iter());
    }
    buf
}

/// Rebuilds a graph from its canonical image.
pub fn decode_graph(bytes: &[u8]) -> Result<PropertyGraph, DecodeError> {
    let mut r = Reader::new(bytes);
    let mut g = PropertyGraph::new();
    let nodes = r.u32()? as usize;
    let mut ids = Vec::with_capacity(nodes.min(1 << 20));
    for _ in 0..nodes {
        let name = r.str()?;
        let id = g
            .try_add_node(&name, r.strs()?, r.props()?)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        ids.push(id);
    }
    let edges = r.u32()? as usize;
    for _ in 0..edges {
        let name = r.str()?;
        let a = r.u32()? as usize;
        let b = r.u32()? as usize;
        let directed = r.u8()? != 0;
        let labels = r.strs()?;
        let props = r.props()?;
        let (Some(&sa), Some(&sb)) = (ids.get(a), ids.get(b)) else {
            return Err(DecodeError::Invalid(format!(
                "edge {name:?} endpoint out of range"
            )));
        };
        let ep = if directed {
            Endpoints::directed(sa, sb)
        } else {
            Endpoints::undirected(sa, sb)
        };
        g.try_add_edge(&name, ep, labels, props)
            .map_err(|e| DecodeError::Invalid(e.to_string()))?;
    }
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes after image".into()));
    }
    Ok(g)
}

/// FNV-1a 64 digest of the canonical image — equal digests mean equal
/// graphs for every property the paper's model observes.
pub fn graph_digest(g: &PropertyGraph) -> u64 {
    fnv1a64(&encode_graph(g))
}

/// Writes `(epoch, g)` to `path` atomically (temp file + rename).
pub fn save_snapshot(path: &Path, epoch: u64, g: &PropertyGraph) -> io::Result<()> {
    let mut payload = Vec::new();
    put_u64(&mut payload, epoch);
    payload.extend_from_slice(&encode_graph(g));
    let mut bytes = Vec::with_capacity(16 + payload.len());
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut bytes, SNAPSHOT_VERSION);
    put_u64(&mut bytes, fnv1a64(&payload));
    bytes.extend_from_slice(&payload);
    let tmp = path.with_extension("gsnp-tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, path)
}

/// Loads a snapshot. `Ok(None)` when the file does not exist; corruption
/// is an error (the WAL was truncated after this snapshot was taken, so
/// silently ignoring it would lose data).
pub fn load_snapshot(path: &Path) -> io::Result<Option<(u64, PropertyGraph)>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let parse = || -> Result<(u64, PropertyGraph), DecodeError> {
        let mut r = Reader::new(&bytes);
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(DecodeError::Magic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(DecodeError::Version(version));
        }
        let checksum = r.u64()?;
        let payload = r.take(r.remaining())?;
        if fnv1a64(payload) != checksum {
            return Err(DecodeError::Checksum);
        }
        let mut p = Reader::new(payload);
        let epoch = p.u64()?;
        let g = decode_graph(p.take(p.remaining())?)?;
        Ok((epoch, g))
    };
    parse().map(Some).map_err(|why| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot {}: {why}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use property_graph::Value;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsnp-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.gsnp")
    }

    fn sample() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let a = g.add_node("a1", ["Account"], [("owner", Value::str("Scott"))]);
        let b = g.add_node("a2", ["Account", "VIP"], [("n", Value::Float(1.5))]);
        g.add_edge("t1", Endpoints::directed(a, b), ["Transfer"], []);
        g.add_edge(
            "k1",
            Endpoints::undirected(b, a),
            ["Knows"],
            [("w", Value::Bool(true))],
        );
        g.add_edge(
            "self",
            Endpoints::undirected(b, b),
            Vec::<String>::new(),
            [],
        );
        g
    }

    #[test]
    fn image_roundtrip_is_bit_identical() {
        let g = sample();
        let image = encode_graph(&g);
        let decoded = decode_graph(&image).unwrap();
        assert_eq!(encode_graph(&decoded), image);
        assert_eq!(graph_digest(&decoded), graph_digest(&g));
        decoded.validate().unwrap();
        assert_eq!(decoded.node_count(), g.node_count());
        assert_eq!(decoded.edge_count(), g.edge_count());
    }

    #[test]
    fn snapshot_file_roundtrip_and_missing_file() {
        let path = tmp("roundtrip");
        assert!(load_snapshot(&path).unwrap().is_none());
        let g = sample();
        save_snapshot(&path, 7, &g).unwrap();
        let (epoch, loaded) = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(graph_digest(&loaded), graph_digest(&g));
    }

    #[test]
    fn corruption_is_loud_not_silent() {
        let path = tmp("corrupt");
        save_snapshot(&path, 1, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_snapshot(&path).is_err());
    }
}
