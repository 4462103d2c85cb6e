//! Simulated source change feeds.
//!
//! A live B2B deployment never stops mutating: rows are inserted into
//! supplier databases, catalog documents are re-published, price lists
//! are edited in place. The mediator can only maintain materialized
//! semantic views incrementally if each source can answer "what changed
//! since version N?" — this module gives every simulated endpoint that
//! capability.
//!
//! A [`ChangeFeed`] is a bounded log of [`ChangeEvent`]s stamped with a
//! **monotone per-source version counter**. Producers call
//! [`ChangeFeed::record`] when they mutate the source snapshot;
//! consumers call [`ChangeFeed::poll_changes`] with the last version
//! they integrated. Because the log is bounded (real feeds compact),
//! a consumer that falls too far behind gets a [`FeedGap`] instead of
//! events — the signal that an incremental catch-up is *unsound* and a
//! full refresh is required.
//!
//! The poll exchange rides the existing wire framing
//! ([`FrameKind::ChangePoll`] / [`FrameKind::ChangeFeed`]) so feed
//! traffic costs real simulated bytes like every other remote call.

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::NetError;
use crate::wire::{self, FrameKind};

/// What a mutation did to the source, at the granularity the paper's
/// source kinds support: row edits for relational sources, node or
/// whole-document edits for tree/text sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// A row was inserted (relational sources).
    RowInsert,
    /// A row was updated in place (relational sources).
    RowUpdate,
    /// A row was deleted (relational sources).
    RowDelete,
    /// A node/element was edited (XML, web documents).
    NodeEdit,
    /// The whole document was replaced (text files, re-published docs).
    DocReplace,
}

impl ChangeKind {
    fn code(self) -> u8 {
        match self {
            ChangeKind::RowInsert => 1,
            ChangeKind::RowUpdate => 2,
            ChangeKind::RowDelete => 3,
            ChangeKind::NodeEdit => 4,
            ChangeKind::DocReplace => 5,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(ChangeKind::RowInsert),
            2 => Some(ChangeKind::RowUpdate),
            3 => Some(ChangeKind::RowDelete),
            4 => Some(ChangeKind::NodeEdit),
            5 => Some(ChangeKind::DocReplace),
            _ => None,
        }
    }
}

/// One recorded mutation of a source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeEvent {
    /// The source version this mutation produced (monotone, starts at 1).
    pub version: u64,
    /// The shape of the mutation.
    pub kind: ChangeKind,
    /// Source-side fields the mutation touched (column names, element
    /// names). Empty means "potentially everything" — consumers must
    /// treat an empty set as touching every field.
    pub fields: Vec<String>,
}

impl ChangeEvent {
    /// Whether this event may have changed the given source-side field.
    /// Names compare ASCII-case-insensitively, as SQL columns resolve
    /// (for case-sensitive element names that can only over-report).
    ///
    /// An empty field set is conservative: it touches everything.
    pub fn touches(&self, field: &str) -> bool {
        self.fields.is_empty() || self.fields.iter().any(|f| f.eq_ignore_ascii_case(field))
    }
}

/// `poll_changes(since)` asked for history the feed no longer retains.
///
/// The only sound reaction is a full refresh: events between `since`
/// and `oldest` have been compacted away, so an incremental catch-up
/// could silently miss mutations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedGap {
    /// The version the consumer had integrated.
    pub since: u64,
    /// The earliest version the feed can still replay *from* (a
    /// consumer at `oldest` or later can catch up incrementally).
    pub oldest: u64,
}

/// Default number of events a feed retains before compacting.
pub const DEFAULT_RETENTION: usize = 64;

/// A bounded, versioned mutation log for one source.
#[derive(Debug, Clone)]
pub struct ChangeFeed {
    events: VecDeque<ChangeEvent>,
    version: u64,
    retention: usize,
}

impl Default for ChangeFeed {
    fn default() -> Self {
        Self::new()
    }
}

impl ChangeFeed {
    /// An empty feed at version 0 with [`DEFAULT_RETENTION`].
    pub fn new() -> Self {
        Self::with_retention(DEFAULT_RETENTION)
    }

    /// An empty feed retaining at most `retention` events (min 1).
    pub fn with_retention(retention: usize) -> Self {
        ChangeFeed { events: VecDeque::new(), version: 0, retention: retention.max(1) }
    }

    /// The current source version (0 = never mutated).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The earliest version a consumer can incrementally catch up from.
    ///
    /// A consumer at exactly this version replays every retained event;
    /// anything older hits a [`FeedGap`].
    pub fn oldest(&self) -> u64 {
        self.version - self.events.len() as u64
    }

    /// Records a mutation, returning the new source version.
    pub fn record(&mut self, kind: ChangeKind, fields: Vec<String>) -> u64 {
        self.version += 1;
        self.events.push_back(ChangeEvent { version: self.version, kind, fields });
        while self.events.len() > self.retention {
            self.events.pop_front();
        }
        self.version
    }

    /// Every event after `since`, oldest first.
    ///
    /// # Errors
    ///
    /// Returns [`FeedGap`] when `since` predates the oldest retained
    /// event — the consumer must fall back to a full refresh.
    pub fn poll_changes(&self, since: u64) -> Result<Vec<ChangeEvent>, FeedGap> {
        if since < self.oldest() {
            return Err(FeedGap { since, oldest: self.oldest() });
        }
        Ok(self.events.iter().filter(|e| e.version > since).cloned().collect())
    }
}

/// Encodes a `poll_changes(since)` request frame.
pub fn encode_poll(since: u64) -> Bytes {
    let mut payload = BytesMut::with_capacity(8);
    payload.put_u64(since);
    wire::encode(FrameKind::ChangePoll, &payload)
}

/// Decodes a poll request payload back into its `since` version.
///
/// # Errors
///
/// Returns [`NetError::BadFrame`] unless the payload is exactly 8 bytes.
pub fn decode_poll(mut payload: Bytes) -> Result<u64, NetError> {
    if payload.len() != 8 {
        return Err(NetError::BadFrame {
            message: format!("change poll payload must be 8 bytes, got {}", payload.len()),
        });
    }
    Ok(payload.get_u64())
}

/// Encodes a feed response: one section per event, each
/// `version (8) | kind (1) | field count (2) | fields (2-byte len + utf8)*`.
pub fn encode_events(events: &[ChangeEvent]) -> Bytes {
    let sections: Vec<Vec<u8>> = events
        .iter()
        .map(|e| {
            let mut s =
                Vec::with_capacity(11 + e.fields.iter().map(|f| 2 + f.len()).sum::<usize>());
            s.extend_from_slice(&e.version.to_be_bytes());
            s.push(e.kind.code());
            s.extend_from_slice(&(e.fields.len() as u16).to_be_bytes());
            for f in &e.fields {
                s.extend_from_slice(&(f.len() as u16).to_be_bytes());
                s.extend_from_slice(f.as_bytes());
            }
            s
        })
        .collect();
    wire::encode_batch(FrameKind::ChangeFeed, &sections)
}

/// Decodes a feed response payload back into its events.
///
/// # Errors
///
/// Returns [`NetError::BadFrame`] on truncated sections, unknown change
/// kinds, or malformed field strings.
pub fn decode_events(payload: Bytes) -> Result<Vec<ChangeEvent>, NetError> {
    let bad = |message: String| NetError::BadFrame { message };
    wire::decode_batch(payload)?
        .into_iter()
        .map(|mut s| {
            if s.len() < 11 {
                return Err(bad(format!("change event section too short: {}", s.len())));
            }
            let version = s.get_u64();
            let kind = ChangeKind::from_code(s.get_u8())
                .ok_or_else(|| bad("unknown change kind".to_string()))?;
            let count = s.get_u16() as usize;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                if s.len() < 2 {
                    return Err(bad("truncated change field header".to_string()));
                }
                let len = s.get_u16() as usize;
                if s.len() < len {
                    return Err(bad("change field overruns section".to_string()));
                }
                let raw = s.split_to(len);
                let field = std::str::from_utf8(&raw)
                    .map_err(|_| bad("change field is not utf8".to_string()))?
                    .to_string();
                fields.push(field);
            }
            if !s.is_empty() {
                return Err(bad(format!("{} trailing bytes in change event", s.len())));
            }
            Ok(ChangeEvent { version, kind, fields })
        })
        .collect()
}

/// Total on-wire size of one poll exchange: the 8-byte poll request
/// plus the feed response carrying `events`. Equals the encoded sizes
/// byte for byte.
pub fn poll_exchange_size(events: &[ChangeEvent]) -> usize {
    wire::frame_size(8)
        + wire::batch_frame_size(
            events.iter().map(|e| 11 + e.fields.iter().map(|f| 2 + f.len()).sum::<usize>()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_with(n: u64) -> ChangeFeed {
        let mut feed = ChangeFeed::new();
        for i in 0..n {
            feed.record(ChangeKind::RowUpdate, vec![format!("col{i}")]);
        }
        feed
    }

    #[test]
    fn versions_are_monotone_from_one() {
        let mut feed = ChangeFeed::new();
        assert_eq!(feed.version(), 0);
        assert_eq!(feed.record(ChangeKind::RowInsert, vec![]), 1);
        assert_eq!(feed.record(ChangeKind::RowDelete, vec!["price".into()]), 2);
        assert_eq!(feed.version(), 2);
    }

    #[test]
    fn poll_returns_only_newer_events() {
        let feed = feed_with(5);
        let events = feed.poll_changes(3).unwrap();
        assert_eq!(events.iter().map(|e| e.version).collect::<Vec<_>>(), vec![4, 5]);
        assert!(feed.poll_changes(5).unwrap().is_empty());
    }

    #[test]
    fn compaction_turns_deep_history_into_a_gap() {
        let mut feed = ChangeFeed::with_retention(3);
        for _ in 0..10 {
            feed.record(ChangeKind::NodeEdit, vec![]);
        }
        assert_eq!(feed.oldest(), 7);
        assert_eq!(feed.poll_changes(7).unwrap().len(), 3);
        let gap = feed.poll_changes(6).unwrap_err();
        assert_eq!(gap, FeedGap { since: 6, oldest: 7 });
    }

    #[test]
    fn empty_field_set_touches_everything() {
        let broad = ChangeEvent { version: 1, kind: ChangeKind::DocReplace, fields: vec![] };
        assert!(broad.touches("price"));
        let narrow =
            ChangeEvent { version: 2, kind: ChangeKind::RowUpdate, fields: vec!["price".into()] };
        assert!(narrow.touches("price"));
        assert!(narrow.touches("Price"), "a SQL column spelled another way");
        assert!(!narrow.touches("brand"));
    }

    #[test]
    fn poll_frames_roundtrip() {
        let frame = wire::decode(encode_poll(42)).unwrap();
        assert_eq!(frame.kind, FrameKind::ChangePoll);
        assert_eq!(decode_poll(frame.payload).unwrap(), 42);
    }

    #[test]
    fn event_frames_roundtrip() {
        let events = vec![
            ChangeEvent { version: 7, kind: ChangeKind::RowUpdate, fields: vec!["price".into()] },
            ChangeEvent { version: 8, kind: ChangeKind::DocReplace, fields: vec![] },
            ChangeEvent {
                version: 9,
                kind: ChangeKind::NodeEdit,
                fields: vec!["brand".into(), "case".into()],
            },
        ];
        let frame = wire::decode(encode_events(&events)).unwrap();
        assert_eq!(frame.kind, FrameKind::ChangeFeed);
        assert_eq!(decode_events(frame.payload).unwrap(), events);
    }

    #[test]
    fn poll_exchange_size_matches_encoded_frames() {
        let events = feed_with(4).poll_changes(1).unwrap();
        assert_eq!(
            poll_exchange_size(&events),
            encode_poll(1).len() + encode_events(&events).len()
        );
        assert_eq!(poll_exchange_size(&[]), encode_poll(0).len() + encode_events(&[]).len());
    }

    #[test]
    fn corrupt_event_frames_rejected() {
        // Truncated section.
        let bad = wire::encode_batch(FrameKind::ChangeFeed, &[&b"\x00\x00"[..]]);
        assert!(decode_events(wire::decode(bad).unwrap().payload).is_err());
        // Unknown change kind (code 99).
        let mut section = Vec::new();
        section.extend_from_slice(&1u64.to_be_bytes());
        section.push(99);
        section.extend_from_slice(&0u16.to_be_bytes());
        let bad = wire::encode_batch(FrameKind::ChangeFeed, &[section]);
        assert!(decode_events(wire::decode(bad).unwrap().payload).is_err());
        // Wrong poll payload width.
        assert!(decode_poll(Bytes::from_static(b"\x00")).is_err());
    }
}
