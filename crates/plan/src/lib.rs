//! # ivnt-plan — the multi-query session under its former names
//!
//! The multi-query planner lives in `ivnt-core`: a
//! [`Session`] holds a list of [`Query`]s, and [`Session::many`] answers N
//! domains from one routed store scan. This crate only keeps the names it
//! used to own — [`SessionMany`] and [`QuerySet`] — as one-line calls into
//! that session, for callers not yet switched to `ivnt-core`.

#![warn(missing_docs)]

use std::io::{Read, Seek};
use std::sync::Arc;

pub use ivnt_core::query::{
    MultiExtraction, MultiOutput, PlanStats, Query, QueryExtraction, QueryResult, QueryStats,
};
use ivnt_core::{Pipeline, Result, Session};
use ivnt_store::StoreReader;

/// A batch of queries bound to one store reader: a [`Session::many`].
pub struct QuerySet<'p, 'a, R: Read + Seek>(Session<'p, 'a, R>);

impl<R: Read + Seek> QuerySet<'_, '_, R> {
    /// [`Session::serial`].
    pub fn serial(self) -> Self {
        QuerySet(self.0.serial())
    }

    /// [`Session::with_subscriber`].
    pub fn with_subscriber(self, registry: Arc<ivnt_obs::Registry>) -> Self {
        QuerySet(self.0.with_subscriber(registry))
    }

    /// [`Session::run_each`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run_each`].
    pub fn run(self) -> Result<MultiOutput> {
        self.0.run_each()
    }

    /// [`Session::extract_each`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::extract_each`].
    pub fn extract(self) -> Result<MultiExtraction> {
        self.0.extract_each()
    }
}

/// Puts `session_many` on [`Pipeline`]: [`Session::many`] as a
/// [`QuerySet`].
pub trait SessionMany {
    /// Binds a batch of queries to one store reader.
    fn session_many<'p, 'a, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, R>;
}

impl SessionMany for Pipeline {
    fn session_many<'p, 'a, R: Read + Seek>(
        queries: Vec<Query<'p>>,
        reader: &'a mut StoreReader<R>,
    ) -> QuerySet<'p, 'a, R> {
        QuerySet(Session::many(queries, reader))
    }
}
