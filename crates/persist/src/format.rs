//! The snapshot container: a self-describing binary envelope with a
//! version header and per-section checksums.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    [u8; 8]   "ECOSNAP\0"
//! version  u32       FORMAT_VERSION
//! count    u32       number of sections
//! section  × count:
//!   tag      [u8; 4]  ASCII section name
//!   len      u64      payload length in bytes
//!   checksum u64      FNV-1a 64 of the payload
//!   payload  [u8; len]
//! ```
//!
//! The container knows nothing about payload semantics — sections are
//! opaque byte strings (in practice, canonical `serde_json` of the
//! engine's checkpoint types). Decoding verifies the magic, the version,
//! and every section checksum before returning anything, so corruption
//! and truncation surface as typed [`PersistError`]s, never panics, and
//! never a silently wrong checkpoint.

use ecosched_engine::event::fnv1a_64;

/// The magic bytes every snapshot file starts with.
pub const MAGIC: [u8; 8] = *b"ECOSNAP\0";

/// The container format version this build writes.
///
/// Version history:
/// * **1** — original container; the checkpoint's vacant market always
///   serialized in the flat `{slots, next_id}` form.
/// * **2** — the vacant market may serialize in the tagged per-node
///   interval form (`{"repr": "interval", …}`). The container layout is
///   unchanged; the bump marks the payload schema extension.
/// * **3** — the optimizer section carries the caches' *inputs* (each DP
///   row's items, each Pareto layer's job) instead of their values; a
///   resumed engine rebuilds the caches. Layout unchanged again.
///
/// Decoding accepts any version in [`MIN_FORMAT_VERSION`]`..=`
/// [`FORMAT_VERSION`]: a v1 snapshot (flat market) decodes under this
/// build and resumes into either market representation. In v1/v2
/// payloads the stored DP row values are ignored (the rows are rebuilt
/// from their items, exactly). Their stored Pareto layers hold frontier
/// points, which cannot be turned back into jobs: the optimizer's restore
/// recomputes each layer's prefix fingerprint from the stored pairs, a
/// legacy layer does not match, and the frontier resumes cold.
pub const FORMAT_VERSION: u32 = 3;

/// The oldest container format version this build still decodes.
pub const MIN_FORMAT_VERSION: u32 = 1;

/// A four-byte ASCII section tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionTag(pub [u8; 4]);

impl SectionTag {
    /// The tag as a printable string (lossy for non-ASCII bytes).
    #[must_use]
    pub fn name(&self) -> String {
        self.0.iter().map(|&b| char::from(b)).collect()
    }
}

impl std::fmt::Display for SectionTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Errors from encoding, decoding, or interpreting a snapshot.
#[derive(Debug)]
pub enum PersistError {
    /// The byte stream ended before the declared structure did.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The stream does not start with the snapshot magic.
    BadMagic,
    /// The stream's format version is not supported by this build.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// A section's payload does not match its stored checksum.
    ChecksumMismatch {
        /// The offending section.
        section: SectionTag,
        /// The checksum the header declared.
        expected: u64,
        /// The checksum of the payload as read.
        found: u64,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// The section that was expected.
        section: SectionTag,
    },
    /// A section's payload passed its checksum but failed to parse as
    /// the expected type (a writer bug or a hand-edited file).
    Corrupt {
        /// The offending section.
        section: SectionTag,
        /// What went wrong.
        detail: String,
    },
    /// Resuming or replaying the decoded checkpoint failed in the engine.
    Engine(ecosched_engine::EngineError),
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated { needed, have } => {
                write!(f, "snapshot truncated: needed {needed} more bytes, have {have}")
            }
            PersistError::BadMagic => write!(f, "not a snapshot: bad magic"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build supports {supported})"
            ),
            PersistError::ChecksumMismatch {
                section,
                expected,
                found,
            } => write!(
                f,
                "section {section}: checksum mismatch (header {expected:016x}, payload {found:016x})"
            ),
            PersistError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            PersistError::Corrupt { section, detail } => {
                write!(f, "section {section}: {detail}")
            }
            PersistError::Engine(e) => write!(f, "engine rejected the checkpoint: {e}"),
            PersistError::Io(e) => write!(f, "snapshot i/o failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Engine(e) => Some(e),
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ecosched_engine::EngineError> for PersistError {
    fn from(e: ecosched_engine::EngineError) -> Self {
        PersistError::Engine(e)
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Encodes sections into the container byte layout.
#[must_use]
pub fn encode(sections: &[(SectionTag, &[u8])]) -> Vec<u8> {
    let body: usize = sections.iter().map(|(_, p)| 4 + 8 + 8 + p.len()).sum();
    let mut out = Vec::with_capacity(MAGIC.len() + 4 + 4 + body);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (tag, payload) in sections {
        out.extend_from_slice(&tag.0);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Reads `N` bytes from `bytes` at `*at`, advancing the cursor.
fn take<const N: usize>(bytes: &[u8], at: &mut usize) -> Result<[u8; N], PersistError> {
    let have = bytes.len().saturating_sub(*at);
    if have < N {
        return Err(PersistError::Truncated { needed: N, have });
    }
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[*at..*at + N]);
    *at += N;
    Ok(out)
}

/// Decodes a container, verifying the magic, the version, and every
/// section checksum.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::UnsupportedVersion`],
/// [`PersistError::Truncated`], or [`PersistError::ChecksumMismatch`] —
/// never a panic, whatever the input bytes.
pub fn decode(bytes: &[u8]) -> Result<Vec<(SectionTag, Vec<u8>)>, PersistError> {
    let mut at = 0usize;
    let magic: [u8; 8] = take(bytes, &mut at)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes(take(bytes, &mut at)?);
    if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let count = u32::from_le_bytes(take(bytes, &mut at)?);
    let mut sections = Vec::with_capacity(count.min(64) as usize);
    for _ in 0..count {
        let tag = SectionTag(take(bytes, &mut at)?);
        let len = u64::from_le_bytes(take(bytes, &mut at)?);
        let expected = u64::from_le_bytes(take(bytes, &mut at)?);
        let len = usize::try_from(len).map_err(|_| PersistError::Truncated {
            needed: usize::MAX,
            have: bytes.len() - at,
        })?;
        let have = bytes.len().saturating_sub(at);
        if have < len {
            return Err(PersistError::Truncated { needed: len, have });
        }
        let payload = bytes[at..at + len].to_vec();
        at += len;
        let found = fnv1a_64(&payload);
        if found != expected {
            return Err(PersistError::ChecksumMismatch {
                section: tag,
                expected,
                found,
            });
        }
        sections.push((tag, payload));
    }
    Ok(sections)
}

/// Finds a required section in a decoded container.
///
/// # Errors
///
/// [`PersistError::MissingSection`] when absent.
pub fn require(sections: &[(SectionTag, Vec<u8>)], tag: SectionTag) -> Result<&[u8], PersistError> {
    sections
        .iter()
        .find(|(t, _)| *t == tag)
        .map(|(_, p)| p.as_slice())
        .ok_or(PersistError::MissingSection { section: tag })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: SectionTag = SectionTag(*b"AAAA");
    const B: SectionTag = SectionTag(*b"BBBB");

    #[test]
    fn round_trips_sections() {
        let bytes = encode(&[(A, b"hello"), (B, b"")]);
        let sections = decode(&bytes).unwrap();
        assert_eq!(sections.len(), 2);
        assert_eq!(require(&sections, A).unwrap(), b"hello");
        assert_eq!(require(&sections, B).unwrap(), b"");
        assert!(matches!(
            require(&sections, SectionTag(*b"ZZZZ")),
            Err(PersistError::MissingSection { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = encode(&[(A, b"x")]);
        bytes[0] ^= 0xff;
        assert!(matches!(decode(&bytes), Err(PersistError::BadMagic)));

        let mut bytes = encode(&[(A, b"x")]);
        bytes[8] = 99; // version field
        assert!(matches!(
            decode(&bytes),
            Err(PersistError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_payload_corruption() {
        let bytes = encode(&[(A, b"payload-bytes")]);
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert!(matches!(
            decode(&corrupt),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = encode(&[(A, b"hello"), (B, b"world")]);
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        assert!(decode(&bytes).is_ok());
    }

    #[test]
    fn errors_render() {
        let e = PersistError::ChecksumMismatch {
            section: A,
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("AAAA"));
        assert!(PersistError::BadMagic.to_string().contains("magic"));
    }
}
